//! The DRAM module façade: content storage plus per-chip internal structure.
//!
//! A [`DramModule`] ties together everything a "real chip" has that the
//! system cannot see: per-bank address scrambling, per-bank column repair,
//! and the true/anti-cell layout. The system side (memory controller,
//! MEMCON) reads and writes rows by *system* address; the failure model
//! reaches the *internal* cell space through [`DramModule::charge_at_internal`]
//! and friends.
//!
//! Content is stored bit-exactly per row so that read-back comparison (the
//! testing MEMCON performs online) sees genuine data-dependent bit flips.

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, OnceLock};

use memutil::rng::SmallRng;
use memutil::rng::{Rng, SeedableRng};

use crate::address::{RowAddr, RowId};
use crate::cell::{CellPolarity, RowContent, TrueAntiLayout};
use crate::error::DramError;
use crate::geometry::DramGeometry;
use crate::remap::RemapTable;
use crate::scramble::{Scrambler, VendorScrambler};
use crate::timing::TimingParams;

/// Fraction of bitlines repaired at manufacturing time (per bank) in the
/// default chip instantiation. Real repair rates are proprietary; a fraction
/// of ~0.2 % of columns is consistent with published repair-architecture
/// studies (Horiguchi & Itoh, cited by the paper).
pub const DEFAULT_REPAIR_FRACTION: f64 = 0.002;

/// Number of spare bitlines per bank in the default instantiation.
pub const DEFAULT_REDUNDANT_BITLINES: u64 = 512;

/// Row-level probe count after which a row's charge image is materialized.
///
/// A single module-wide evaluation sweep touches an internal row at most
/// three times (once as the victim, once per vertical neighbour), so the
/// threshold keeps one-shot sweeps on the cheap sparse-probe path while
/// repeated sweeps over unchanged content (hot TestEngine rows, benchmark
/// loops) graduate to the word-wide image.
const HOT_ROW_PROBES: u32 = 3;

/// Flat per-bank scrambler tables: the [`Scrambler`] translations memoized
/// into arrays, so a sparse charge probe costs two indexed loads instead of
/// two O(address-width) bit-permutation walks. Content-independent — row
/// writes never invalidate them.
#[derive(Debug)]
struct BankTables {
    /// `internal_row -> system row`.
    sys_row_of: Vec<u32>,
    /// `internal_bit -> system bit`.
    sys_bit_of: Vec<u64>,
}

/// Charge-image state of one internal row: a probe-heat counter and the
/// lazily built image. The whole slot is reset whenever the underlying
/// system row is written, so a cached image always reflects live content.
#[derive(Debug, Default)]
struct RowChargeSlot {
    probes: AtomicU32,
    image: OnceLock<Arc<[u64]>>,
}

impl Clone for RowChargeSlot {
    fn clone(&self) -> Self {
        RowChargeSlot {
            probes: AtomicU32::new(self.probes.load(Ordering::Relaxed)),
            image: self.image.clone(),
        }
    }
}

/// Derived fast-path state: per-bank scrambler tables plus the heat-gated
/// per-row charge-image cache. Everything here is recomputable from the
/// module's content and structure. The tables depend only on the immutable
/// scramblers, so clones share them through one `Arc` — whichever clone
/// builds a bank's tables first pays for the whole lineage. The image
/// slots are copied per clone (they track content, which diverges).
#[derive(Debug, Clone)]
struct ChargeCache {
    /// One lazily built table set per bank, shared across clones.
    tables: Arc<Vec<OnceLock<Arc<BankTables>>>>,
    /// One slot per internal row, bank-major:
    /// `bank_idx * rows_per_bank + internal_row`.
    rows: Vec<RowChargeSlot>,
}

impl ChargeCache {
    fn new(n_banks: usize, total_rows: usize) -> Self {
        ChargeCache {
            tables: Arc::new((0..n_banks).map(|_| OnceLock::new()).collect()),
            rows: (0..total_rows).map(|_| RowChargeSlot::default()).collect(),
        }
    }
}

/// A simulated DRAM module with vendor-internal structure.
///
/// Rows are copy-on-write [`RowContent`]s: a clone shares every row's
/// storage with its source until one side writes the row, so cloning costs
/// a reference-count bump per row plus the charge-cache slots. A fresh
/// module's rows all share one zero buffer; a 2 GB geometry still needs
/// 2 GB of host memory once every row is written, so experiments use
/// scaled-down geometries.
#[derive(Debug, Clone)]
pub struct DramModule {
    geometry: DramGeometry,
    timing: TimingParams,
    chip_seed: u64,
    rows: Vec<RowContent>,
    scramblers: Vec<VendorScrambler>,
    remaps: Vec<RemapTable>,
    layout: TrueAntiLayout,
    charge: ChargeCache,
}

impl DramModule {
    /// Builds a module with all-zero content and per-chip internal structure
    /// derived deterministically from `chip_seed` (two modules with the same
    /// seed are identical chips; different seeds model different dies).
    ///
    /// # Panics
    ///
    /// Panics if `geometry` or `timing` fails validation.
    #[must_use]
    pub fn new(geometry: DramGeometry, timing: TimingParams, chip_seed: u64) -> Self {
        geometry.validate().expect("invalid geometry");
        timing.validate().expect("invalid timing");
        let total = geometry.total_rows() as usize;
        let words = geometry.words_per_row();
        let bits = geometry.bits_per_row();
        let n_banks = usize::from(geometry.ranks) * usize::from(geometry.banks);

        let mut rng = SmallRng::seed_from_u64(chip_seed);
        // Half-and-half is the common layout reported by Liu et al. (ISCA'13)
        // for the chips the paper's methodology builds on; row-interleaved
        // layouts are available via `with_layout` for sensitivity studies.
        let _ = rng.gen::<u64>(); // keep downstream seed stream stable
        let layout = TrueAntiLayout::HalfAndHalf {
            rows_per_bank: geometry.rows_per_bank,
        };
        let faults = ((bits as f64 * DEFAULT_REPAIR_FRACTION) as u64)
            .min(DEFAULT_REDUNDANT_BITLINES.min(bits / 4));
        let scramblers = (0..n_banks)
            .map(|b| {
                VendorScrambler::from_seed(
                    chip_seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ b as u64,
                    geometry.rows_per_bank,
                    bits,
                )
            })
            .collect();
        let remaps = (0..n_banks)
            .map(|b| {
                RemapTable::from_seed(
                    chip_seed.wrapping_add(0xA5A5_5A5A) ^ (b as u64) << 17,
                    bits,
                    DEFAULT_REDUNDANT_BITLINES.min(bits / 2),
                    faults,
                )
            })
            .collect();

        DramModule {
            geometry,
            timing,
            chip_seed,
            rows: vec![RowContent::zeroed(words); total],
            scramblers,
            remaps,
            layout,
            charge: ChargeCache::new(n_banks, total),
        }
    }

    /// Device geometry.
    #[must_use]
    pub fn geometry(&self) -> &DramGeometry {
        &self.geometry
    }

    /// Device timing.
    #[must_use]
    pub fn timing(&self) -> &TimingParams {
        &self.timing
    }

    /// The seed this chip was instantiated from.
    #[must_use]
    pub fn chip_seed(&self) -> u64 {
        self.chip_seed
    }

    /// True/anti-cell layout of this chip.
    #[must_use]
    pub fn layout(&self) -> TrueAntiLayout {
        self.layout
    }

    /// Replaces the true/anti-cell layout (for layout sensitivity studies).
    #[must_use]
    pub fn with_layout(mut self, layout: TrueAntiLayout) -> Self {
        self.layout = layout;
        self.invalidate_all_images();
        self
    }

    fn bank_index(&self, addr: RowAddr) -> usize {
        usize::from(addr.rank) * usize::from(self.geometry.banks) + usize::from(addr.bank)
    }

    /// The (vendor-secret) scrambler of `addr`'s bank.
    #[must_use]
    pub fn scrambler_for(&self, addr: RowAddr) -> &dyn Scrambler {
        &self.scramblers[self.bank_index(addr)]
    }

    /// The (vendor-secret) column-repair table of `addr`'s bank.
    #[must_use]
    pub fn remap_for(&self, addr: RowAddr) -> &RemapTable {
        &self.remaps[self.bank_index(addr)]
    }

    fn check_addr(&self, addr: RowAddr) -> Result<usize, DramError> {
        if addr.rank >= self.geometry.ranks {
            return Err(DramError::BankOutOfRange {
                bank: addr.rank,
                banks: self.geometry.ranks,
            });
        }
        if addr.bank >= self.geometry.banks {
            return Err(DramError::BankOutOfRange {
                bank: addr.bank,
                banks: self.geometry.banks,
            });
        }
        if addr.row >= self.geometry.rows_per_bank {
            return Err(DramError::RowOutOfRange {
                row: addr,
                rows_per_bank: self.geometry.rows_per_bank,
            });
        }
        Ok(addr.to_row_id(&self.geometry) as usize)
    }

    /// Reads a row by system address.
    ///
    /// # Errors
    ///
    /// Returns an address-range error if `addr` is outside the geometry.
    pub fn read_row(&self, addr: RowAddr) -> Result<&RowContent, DramError> {
        let idx = self.check_addr(addr)?;
        Ok(&self.rows[idx])
    }

    /// Overwrites a row by system address.
    ///
    /// # Errors
    ///
    /// Returns an address-range error or a
    /// [`DramError::ContentLengthMismatch`] if `content` has the wrong size.
    pub fn write_row(&mut self, addr: RowAddr, content: RowContent) -> Result<(), DramError> {
        let idx = self.check_addr(addr)?;
        if content.len_words() != self.geometry.words_per_row() {
            return Err(DramError::ContentLengthMismatch {
                expected: self.geometry.words_per_row(),
                actual: content.len_words(),
            });
        }
        self.rows[idx] = content;
        self.invalidate_image(addr);
        Ok(())
    }

    /// Mutable access to a row by system address (for in-place bit flips by
    /// the failure model).
    ///
    /// # Errors
    ///
    /// Returns an address-range error if `addr` is outside the geometry.
    pub fn row_mut(&mut self, addr: RowAddr) -> Result<&mut RowContent, DramError> {
        let idx = self.check_addr(addr)?;
        self.invalidate_image(addr);
        Ok(&mut self.rows[idx])
    }

    /// Fault-injection hook: flips one content bit of the row at `addr`
    /// (the bit index wraps modulo the row width), invalidating any charge
    /// image exactly as a demand write would. Returns the bit's new value.
    ///
    /// # Errors
    ///
    /// Returns an address-range error if `addr` is outside the geometry.
    pub fn inject_bit_flip(&mut self, addr: RowAddr, bit: u64) -> Result<bool, DramError> {
        let bits = self.geometry.words_per_row() as u64 * 64;
        let row = self.row_mut(addr)?;
        Ok(row.flip_bit(bit % bits))
    }

    /// Reads a row by linear [`RowId`].
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    #[must_use]
    pub fn read_row_id(&self, id: RowId) -> &RowContent {
        &self.rows[id as usize]
    }

    /// Fills the whole module by evaluating `f(row_id)`.
    pub fn fill_with(&mut self, mut f: impl FnMut(RowId) -> RowContent) {
        let words = self.geometry.words_per_row();
        for (i, slot) in self.rows.iter_mut().enumerate() {
            let content = f(i as RowId);
            assert_eq!(
                content.len_words(),
                words,
                "fill_with produced a row of the wrong size"
            );
            *slot = content;
        }
        self.invalidate_all_images();
    }

    /// Charge state (`true` = capacitor charged) of the cell at *internal*
    /// coordinates: bank-internal row `internal_row`, bitline `internal_bit`
    /// (pre-remap). Applies scrambling inverse, then the true/anti polarity.
    ///
    /// This is the physics-side accessor used by the failure model; MEMCON
    /// never calls it.
    ///
    /// # Panics
    ///
    /// Panics if coordinates are out of range.
    #[must_use]
    pub fn charge_at_internal(
        &self,
        rank: u8,
        bank: u8,
        internal_row: u32,
        internal_bit: u64,
    ) -> bool {
        let bank_idx = usize::from(rank) * usize::from(self.geometry.banks) + usize::from(bank);
        let s = &self.scramblers[bank_idx];
        let sys_row = s.to_system_row(internal_row);
        let sys_bit = s.to_system_bit(internal_bit);
        let addr = RowAddr::new(rank, bank, sys_row);
        let logical = self.rows[addr.to_row_id(&self.geometry) as usize].bit(sys_bit);
        self.layout.polarity(internal_row).charge(logical)
    }

    /// Translates internal coordinates to the (rank, bank, system row,
    /// system bit) the system would observe a flip at.
    #[must_use]
    pub fn internal_to_system(
        &self,
        rank: u8,
        bank: u8,
        internal_row: u32,
        internal_bit: u64,
    ) -> (RowAddr, u64) {
        let bank_idx = usize::from(rank) * usize::from(self.geometry.banks) + usize::from(bank);
        let s = &self.scramblers[bank_idx];
        (
            RowAddr::new(rank, bank, s.to_system_row(internal_row)),
            s.to_system_bit(internal_bit),
        )
    }

    /// The memoized scrambler tables of `bank_idx`, built on first use.
    fn bank_tables(&self, bank_idx: usize) -> Arc<BankTables> {
        Arc::clone(self.charge.tables[bank_idx].get_or_init(|| {
            let s = &self.scramblers[bank_idx];
            Arc::new(BankTables {
                sys_row_of: (0..self.geometry.rows_per_bank)
                    .map(|r| s.to_system_row(r))
                    .collect(),
                sys_bit_of: (0..self.geometry.bits_per_row())
                    .map(|b| s.to_system_bit(b))
                    .collect(),
            })
        }))
    }

    fn row_slot(&self, bank_idx: usize, internal_row: u32) -> &RowChargeSlot {
        &self.charge.rows[bank_idx * self.geometry.rows_per_bank as usize + internal_row as usize]
    }

    /// Drops the cached charge image of the internal row that stores system
    /// row `addr` (called from every content-mutation path).
    fn invalidate_image(&mut self, addr: RowAddr) {
        let bank_idx = self.bank_index(addr);
        let internal_row = self.scramblers[bank_idx].to_internal_row(addr.row);
        let slot = bank_idx * self.geometry.rows_per_bank as usize + internal_row as usize;
        self.charge.rows[slot] = RowChargeSlot::default();
    }

    /// Drops every cached charge image (bulk-fill / layout-change path).
    /// The scrambler tables are content-independent and survive.
    fn invalidate_all_images(&mut self) {
        for slot in &mut self.charge.rows {
            *slot = RowChargeSlot::default();
        }
    }

    /// Fast sparse charge probe: identical result to
    /// [`DramModule::charge_at_internal`], but the scrambler translations go
    /// through the memoized per-bank tables (two indexed loads), and a
    /// cached charge image is used directly when one exists.
    ///
    /// # Panics
    ///
    /// Panics if coordinates are out of range.
    #[must_use]
    pub fn charge_probe(&self, rank: u8, bank: u8, internal_row: u32, internal_bit: u64) -> bool {
        let bank_idx = usize::from(rank) * usize::from(self.geometry.banks) + usize::from(bank);
        if let Some(img) = self.row_slot(bank_idx, internal_row).image.get() {
            return (img[(internal_bit / 64) as usize] >> (internal_bit % 64)) & 1 == 1;
        }
        let t = self.bank_tables(bank_idx);
        let sys_row = t.sys_row_of[internal_row as usize];
        let sys_bit = t.sys_bit_of[internal_bit as usize];
        let addr = RowAddr::new(rank, bank, sys_row);
        let logical = self.rows[addr.to_row_id(&self.geometry) as usize].bit(sys_bit);
        self.layout.polarity(internal_row).charge(logical)
    }

    /// The *charge image* of one internal row: bit `i % 64` of word `i / 64`
    /// is the charge state of internal bitline `i`, with scrambling and
    /// true-/anti-cell polarity already applied. Built on first call and
    /// cached until the underlying system row is written.
    ///
    /// # Panics
    ///
    /// Panics if coordinates are out of range.
    #[must_use]
    pub fn charge_image(&self, rank: u8, bank: u8, internal_row: u32) -> Arc<[u64]> {
        let bank_idx = usize::from(rank) * usize::from(self.geometry.banks) + usize::from(bank);
        self.materialize_image(bank_idx, rank, bank, internal_row)
    }

    /// Heat-gated variant of [`DramModule::charge_image`]: counts the call
    /// as one row-level probe and returns the image only once the row has
    /// been probed more than `HOT_ROW_PROBES` times since its content
    /// last changed (`None` while cold — callers fall back to
    /// [`DramModule::charge_probe`]). This keeps one-shot sweeps off the
    /// O(bits-per-row) image build while repeatedly probed rows amortize it.
    ///
    /// # Panics
    ///
    /// Panics if coordinates are out of range.
    #[must_use]
    pub fn charge_image_if_hot(&self, rank: u8, bank: u8, internal_row: u32) -> Option<Arc<[u64]>> {
        let bank_idx = usize::from(rank) * usize::from(self.geometry.banks) + usize::from(bank);
        let slot = self.row_slot(bank_idx, internal_row);
        if let Some(img) = slot.image.get() {
            return Some(Arc::clone(img));
        }
        if slot.probes.fetch_add(1, Ordering::Relaxed) < HOT_ROW_PROBES {
            return None;
        }
        Some(self.materialize_image(bank_idx, rank, bank, internal_row))
    }

    fn materialize_image(
        &self,
        bank_idx: usize,
        rank: u8,
        bank: u8,
        internal_row: u32,
    ) -> Arc<[u64]> {
        let slot = self.row_slot(bank_idx, internal_row);
        Arc::clone(slot.image.get_or_init(|| {
            // Heat transition: this row graduates from sparse probes to a
            // word-wide image. Once per (row, invalidation epoch), and a
            // pure function of total probe counts — deterministic.
            telemetry::count("dram.charge.image_builds", 1);
            let t = self.bank_tables(bank_idx);
            let sys_row = t.sys_row_of[internal_row as usize];
            let addr = RowAddr::new(rank, bank, sys_row);
            let row = &self.rows[addr.to_row_id(&self.geometry) as usize];
            let mut img = vec![0u64; self.geometry.words_per_row()];
            for (internal_bit, &sys_bit) in t.sys_bit_of.iter().enumerate() {
                if row.bit(sys_bit) {
                    img[internal_bit / 64] |= 1 << (internal_bit % 64);
                }
            }
            if matches!(self.layout.polarity(internal_row), CellPolarity::Anti) {
                for w in &mut img {
                    *w = !*w;
                }
            }
            img.into()
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::CellPolarity;

    fn tiny_module() -> DramModule {
        DramModule::new(DramGeometry::tiny(), TimingParams::ddr3_1600(), 1234)
    }

    #[test]
    fn new_module_is_zeroed() {
        let m = tiny_module();
        for id in 0..m.geometry().total_rows() {
            assert_eq!(m.read_row_id(id).popcount(), 0);
        }
    }

    #[test]
    fn write_read_roundtrip() {
        let mut m = tiny_module();
        let addr = RowAddr::new(0, 1, 10);
        let mut content = RowContent::zeroed(m.geometry().words_per_row());
        content.set_bit(100, true);
        m.write_row(addr, content.clone()).unwrap();
        assert_eq!(m.read_row(addr).unwrap(), &content);
        // Other rows untouched.
        assert_eq!(m.read_row(RowAddr::new(0, 1, 11)).unwrap().popcount(), 0);
    }

    #[test]
    fn write_rejects_wrong_size() {
        let mut m = tiny_module();
        let err = m
            .write_row(RowAddr::new(0, 0, 0), RowContent::zeroed(1))
            .unwrap_err();
        assert!(matches!(err, DramError::ContentLengthMismatch { .. }));
    }

    #[test]
    fn out_of_range_addresses_error() {
        let m = tiny_module();
        assert!(m.read_row(RowAddr::new(0, 5, 0)).is_err());
        assert!(m.read_row(RowAddr::new(0, 0, 64)).is_err());
        assert!(m.read_row(RowAddr::new(1, 0, 0)).is_err());
    }

    #[test]
    fn same_seed_same_chip_different_seed_different_chip() {
        let a = DramModule::new(DramGeometry::tiny(), TimingParams::ddr3_1600(), 7);
        let b = DramModule::new(DramGeometry::tiny(), TimingParams::ddr3_1600(), 7);
        let c = DramModule::new(DramGeometry::tiny(), TimingParams::ddr3_1600(), 8);
        let probe = |m: &DramModule| {
            (0..16u32)
                .map(|r| m.scrambler_for(RowAddr::new(0, 0, 0)).to_internal_row(r))
                .collect::<Vec<_>>()
        };
        assert_eq!(probe(&a), probe(&b));
        assert_ne!(probe(&a), probe(&c));
    }

    #[test]
    fn charge_respects_scramble_and_polarity() {
        let mut m = tiny_module();
        // Set a single known system bit and find it through the internal view.
        let addr = RowAddr::new(0, 0, 3);
        let mut content = RowContent::zeroed(m.geometry().words_per_row());
        content.set_bit(17, true);
        m.write_row(addr, content).unwrap();

        let s = &m.scramblers[0];
        let internal_row = s.to_internal_row(3);
        let internal_bit = s.to_internal_bit(17);
        let polarity = m.layout().polarity(internal_row);
        let expected_charge = polarity.charge(true);
        assert_eq!(
            m.charge_at_internal(0, 0, internal_row, internal_bit),
            expected_charge
        );
        // A zero bit at the same internal row has the complementary charge
        // only if polarity maps it so.
        let other_bit = s.to_internal_bit(18);
        assert_eq!(
            m.charge_at_internal(0, 0, internal_row, other_bit),
            polarity.charge(false)
        );
        // Sanity: polarity is a real enum value.
        assert!(matches!(polarity, CellPolarity::True | CellPolarity::Anti));
    }

    #[test]
    fn internal_to_system_roundtrip() {
        let m = tiny_module();
        let s = &m.scramblers[1]; // bank 1
        let internal_row = s.to_internal_row(20);
        let internal_bit = s.to_internal_bit(99);
        let (addr, bit) = m.internal_to_system(0, 1, internal_row, internal_bit);
        assert_eq!(addr, RowAddr::new(0, 1, 20));
        assert_eq!(bit, 99);
    }

    #[test]
    fn fill_with_covers_all_rows() {
        let mut m = tiny_module();
        let words = m.geometry().words_per_row();
        m.fill_with(|id| RowContent::from_words(vec![id; words]));
        assert_eq!(m.read_row_id(5).as_words()[0], 5);
        assert_eq!(
            m.read_row_id(m.geometry().total_rows() - 1).as_words()[0],
            m.geometry().total_rows() - 1
        );
    }

    #[test]
    fn row_mut_allows_bit_flip() {
        let mut m = tiny_module();
        let addr = RowAddr::new(0, 0, 0);
        m.row_mut(addr).unwrap().set_bit(7, true);
        assert!(m.read_row(addr).unwrap().bit(7));
    }

    /// Writes to a clone's rows, through either mutation path, unshare
    /// them first: the source module keeps its content.
    #[test]
    fn writes_to_a_clone_never_reach_the_source() {
        let mut m = tiny_module();
        random_fill(&mut m, 11);
        let words = |m: &DramModule| {
            (0..m.geometry().total_rows())
                .map(|id| m.read_row_id(id).as_words().to_vec())
                .collect::<Vec<_>>()
        };
        let before = words(&m);
        let addr = RowAddr::new(0, 1, 4);
        let mut c = m.clone();
        c.row_mut(addr).unwrap().flip_bit(5);
        c.inject_bit_flip(RowAddr::new(0, 0, 9), 70).unwrap();
        c.row_mut(addr).unwrap().as_mut_words()[3] ^= 1;
        assert_eq!(words(&m), before, "a write to the clone reached the source");
        assert_eq!(
            c.read_row(addr)
                .unwrap()
                .hamming_distance(m.read_row(addr).unwrap()),
            2
        );
    }

    fn random_fill(m: &mut DramModule, seed: u64) {
        let words = m.geometry().words_per_row();
        let mut rng = SmallRng::seed_from_u64(seed);
        m.fill_with(|_| RowContent::from_words((0..words).map(|_| rng.gen()).collect()));
    }

    #[test]
    fn charge_probe_and_image_agree_with_naive_path() {
        let mut m = tiny_module();
        random_fill(&mut m, 0xC4A6);
        let g = *m.geometry();
        for rank in 0..g.ranks {
            for bank in 0..g.banks {
                for row in 0..g.rows_per_bank {
                    let img = m.charge_image(rank, bank, row);
                    for bit in 0..g.bits_per_row() {
                        let naive = m.charge_at_internal(rank, bank, row, bit);
                        assert_eq!(
                            m.charge_probe(rank, bank, row, bit),
                            naive,
                            "probe diverged at ({rank},{bank},{row},{bit})"
                        );
                        assert_eq!(
                            (img[(bit / 64) as usize] >> (bit % 64)) & 1 == 1,
                            naive,
                            "image diverged at ({rank},{bank},{row},{bit})"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn charge_image_if_hot_gates_on_probe_count() {
        let mut m = tiny_module();
        random_fill(&mut m, 5);
        for _ in 0..HOT_ROW_PROBES {
            assert!(m.charge_image_if_hot(0, 0, 9).is_none(), "built too early");
        }
        assert!(m.charge_image_if_hot(0, 0, 9).is_some(), "never became hot");
        // Once built, further callers get the cached image without waiting.
        assert!(m.charge_image_if_hot(0, 0, 9).is_some());
    }

    #[test]
    fn writes_invalidate_the_charge_image() {
        let mut m = tiny_module();
        random_fill(&mut m, 6);
        let g = *m.geometry();
        let addr = RowAddr::new(0, 1, 12);
        let internal_row = m.scrambler_for(addr).to_internal_row(addr.row);

        let before = m.charge_image(0, 1, internal_row);
        // `write_row`: the stale image must be dropped and rebuilt from the
        // new content.
        let mut rng = SmallRng::seed_from_u64(7);
        let fresh = RowContent::from_words(
            (0..g.words_per_row())
                .map(|_| rng.gen())
                .collect::<Vec<_>>(),
        );
        m.write_row(addr, fresh).unwrap();
        let after = m.charge_image(0, 1, internal_row);
        assert_ne!(before, after, "image not rebuilt after write_row");
        for bit in 0..g.bits_per_row() {
            assert_eq!(
                (after[(bit / 64) as usize] >> (bit % 64)) & 1 == 1,
                m.charge_at_internal(0, 1, internal_row, bit)
            );
        }

        // `row_mut`: in-place flips must invalidate too.
        let sys_bit = 33;
        m.row_mut(addr).unwrap().flip_bit(sys_bit);
        let internal_bit = m.scrambler_for(addr).to_internal_bit(sys_bit);
        let rebuilt = m.charge_image(0, 1, internal_row);
        assert_eq!(
            (rebuilt[(internal_bit / 64) as usize] >> (internal_bit % 64)) & 1 == 1,
            m.charge_at_internal(0, 1, internal_row, internal_bit)
        );
        assert_ne!(rebuilt, after, "image not rebuilt after row_mut");

        // `fill_with`: bulk refills drop every image.
        let img_other = m.charge_image(0, 0, 3);
        random_fill(&mut m, 8);
        for bit in 0..g.bits_per_row() {
            assert_eq!(
                m.charge_probe(0, 0, 3, bit),
                m.charge_at_internal(0, 0, 3, bit),
                "stale probe after fill_with"
            );
        }
        let img_refilled = m.charge_image(0, 0, 3);
        assert_ne!(img_other, img_refilled, "image not rebuilt after fill_with");
    }

    #[test]
    fn with_layout_invalidates_images() {
        let mut m = tiny_module();
        random_fill(&mut m, 9);
        let before = m.charge_image(0, 0, 1);
        let m = m.with_layout(TrueAntiLayout::AlternateRows);
        let after = m.charge_image(0, 0, 1);
        // Internal row 1 is a true cell under HalfAndHalf (64-row banks) but
        // an anti cell under AlternateRows: the image must flip.
        assert_eq!(
            before.iter().map(|w| !w).collect::<Vec<_>>(),
            after.iter().copied().collect::<Vec<_>>()
        );
    }

    #[test]
    fn cloned_module_keeps_consistent_charge_state() {
        let mut m = tiny_module();
        random_fill(&mut m, 10);
        let _ = m.charge_image(0, 0, 5);
        let mut c = m.clone();
        // The clone's cached image matches its (identical) content...
        assert_eq!(m.charge_image(0, 0, 5), c.charge_image(0, 0, 5));
        // ...and diverges independently after a write to the clone.
        let addr = RowAddr::new(
            0,
            0,
            c.scrambler_for(RowAddr::new(0, 0, 0)).to_system_row(5),
        );
        let internal = c.scrambler_for(addr).to_internal_row(addr.row);
        assert_eq!(internal, 5, "address arithmetic self-check");
        c.row_mut(addr).unwrap().flip_bit(0);
        assert_ne!(m.charge_image(0, 0, 5), c.charge_image(0, 0, 5));
        for bit in 0..m.geometry().bits_per_row() {
            assert_eq!(
                m.charge_probe(0, 0, 5, bit),
                m.charge_at_internal(0, 0, 5, bit)
            );
        }
    }
}
