//! The DRAM module façade: content storage plus per-chip internal structure.
//!
//! A [`DramModule`] ties together everything a "real chip" has that the
//! system cannot see: per-bank address scrambling, per-bank column repair,
//! and the true/anti-cell layout. The system side (memory controller,
//! MEMCON) reads and writes rows by *system* address; the failure model
//! reaches the *internal* cell space through [`DramModule::charge_row`],
//! which [`DramModule::charge_at_internal`] defines cell by cell.
//!
//! Content is stored bit-exactly per row so that read-back comparison (the
//! testing MEMCON performs online) sees genuine data-dependent bit flips.

use std::sync::{Arc, OnceLock};

use crate::address::{RowAddr, RowId};
use crate::cell::{row_polarity, CellPolarity, RowContent};
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

/// Flat per-bank scrambler tables: the [`Scrambler`] translations memoized
/// into arrays, so resolving a row or a bit costs an indexed load instead
/// of an O(address-width) bit-permutation walk. Content-independent: row
/// writes never invalidate them.
#[derive(Debug)]
struct BankTables {
    /// `internal_row -> system row`.
    sys_row_of: Vec<u32>,
    /// `internal_bit -> system bit`.
    sys_bit_of: Vec<u64>,
}

/// The charge view of one internal row, from [`DramModule::charge_row`]:
/// the row's system content and cell polarity, resolved once, so reading a
/// cell's charge costs two indexed loads.
#[derive(Debug)]
pub struct ChargeRow<'a> {
    words: &'a [u64],
    sys_bit_of: &'a [u64],
    polarity: CellPolarity,
}

impl ChargeRow<'_> {
    /// Charge state (`true` = capacitor charged) of internal bitline
    /// `internal_bit` (pre-remap) of this row.
    ///
    /// # Panics
    ///
    /// Panics if `internal_bit` is out of range.
    #[must_use]
    pub fn charge(&self, internal_bit: u64) -> bool {
        let sys_bit = self.sys_bit_of[internal_bit as usize];
        let logical = (self.words[(sys_bit / 64) as usize] >> (sys_bit % 64)) & 1 == 1;
        self.polarity.charge(logical)
    }
}

/// A simulated DRAM module with vendor-internal structure.
///
/// Rows are copy-on-write [`RowContent`]s: a clone shares every row's
/// storage with its source until one side writes the row, so cloning costs
/// a reference-count bump per row. A fresh module's rows all share one
/// zero buffer; a 2 GB geometry still needs 2 GB of host memory once every
/// row is written, so experiments use scaled-down geometries.
#[derive(Debug, Clone)]
pub struct DramModule {
    geometry: DramGeometry,
    timing: TimingParams,
    chip_seed: u64,
    rows: Vec<RowContent>,
    scramblers: Vec<VendorScrambler>,
    remaps: Vec<RemapTable>,
    /// One lazily built table set per bank. The tables depend only on the
    /// immutable scramblers, so clones share them: whichever clone builds
    /// a bank's tables first pays for the whole lineage.
    tables: Arc<Vec<OnceLock<BankTables>>>,
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
            tables: Arc::new((0..n_banks).map(|_| OnceLock::new()).collect()),
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
        Ok(&mut self.rows[idx])
    }

    /// Fault-injection hook: flips one content bit of the row at `addr`
    /// (the bit index wraps modulo the row width). Returns the bit's new
    /// value.
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
        row_polarity(internal_row, self.geometry.rows_per_bank).charge(logical)
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
    fn bank_tables(&self, bank_idx: usize) -> &BankTables {
        self.tables[bank_idx].get_or_init(|| {
            let s = &self.scramblers[bank_idx];
            BankTables {
                sys_row_of: (0..self.geometry.rows_per_bank)
                    .map(|r| s.to_system_row(r))
                    .collect(),
                sys_bit_of: (0..self.geometry.bits_per_row())
                    .map(|b| s.to_system_bit(b))
                    .collect(),
            }
        })
    }

    /// The charge view of bank-internal row `internal_row`: its system row
    /// and true/anti polarity resolved once, so [`ChargeRow::charge`]
    /// equals [`DramModule::charge_at_internal`] for every bit at two
    /// indexed loads per cell. The view borrows the module, so no write can
    /// make it stale.
    ///
    /// # Panics
    ///
    /// Panics if coordinates are out of range.
    #[must_use]
    pub fn charge_row(&self, rank: u8, bank: u8, internal_row: u32) -> ChargeRow<'_> {
        let bank_idx = usize::from(rank) * usize::from(self.geometry.banks) + usize::from(bank);
        let t = self.bank_tables(bank_idx);
        let addr = RowAddr::new(rank, bank, t.sys_row_of[internal_row as usize]);
        ChargeRow {
            words: self.rows[addr.to_row_id(&self.geometry) as usize].as_words(),
            sys_bit_of: &t.sys_bit_of,
            polarity: row_polarity(internal_row, self.geometry.rows_per_bank),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memutil::rng::{Rng, SeedableRng, SmallRng};

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
        let polarity = row_polarity(internal_row, m.geometry().rows_per_bank);
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
    fn charge_row_agrees_with_naive_path() {
        let mut m = tiny_module();
        random_fill(&mut m, 0xC4A6);
        let g = *m.geometry();
        for rank in 0..g.ranks {
            for bank in 0..g.banks {
                for row in 0..g.rows_per_bank {
                    let view = m.charge_row(rank, bank, row);
                    for bit in 0..g.bits_per_row() {
                        assert_eq!(
                            view.charge(bit),
                            m.charge_at_internal(rank, bank, row, bit),
                            "charge view diverged at ({rank},{bank},{row},{bit})"
                        );
                    }
                }
            }
        }
    }
}
