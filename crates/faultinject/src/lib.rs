//! Deterministic, replayable fault injection for the MEMCON stack.
//!
//! A [`FaultPlan`] names a set of injection [`Site`]s, each with a rate and
//! a [`Schedule`]. Consumers ask the plan whether the *k*-th decision at a
//! site fires; the answer is a pure function of `(plan seed, site, k)`, so
//! every run is bit-reproducible and a failing plan can be shrunk by
//! lowering rates or narrowing schedules without perturbing the decisions
//! that remain.
//!
//! Two access modes:
//!
//! * [`FaultSession`] — a per-consumer handle that numbers decisions
//!   sequentially. Each consumer (a controller, an engine run) owns its own
//!   session, so parallel consumers never share mutable state and the
//!   decision sequence of one consumer is independent of scheduling.
//! * [`FaultPlan::fires`] — the stateless keyed form for callers that carry
//!   a natural deterministic key (e.g. a global row index), immune to
//!   thread interleaving by construction.
//!
//! Like `telemetry`, the injector is **off by default and zero-cost when
//! off**: [`enabled`] is one relaxed atomic load, and sessions simply do
//! not exist ([`FaultSession::begin`] returns `None`) unless a plan is
//! [`install`]ed. Plans serialize to JSON under schema
//! `memcon-faultplan/v1`.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, PoisonError, RwLock};

use memutil::codec::Io;
use memutil::json::Json;
use memutil::rng::mix64;

/// The JSON schema identifier of serialized plans.
pub const SCHEMA: &str = "memcon-faultplan/v1";

/// Number of named injection sites.
pub const N_SITES: usize = 14;

/// A named fault-injection site. Sites are stable API: their names appear
/// in serialized plans and in telemetry counter names
/// (`fault.<site name>`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum Site {
    /// `memsim`: a controller command (test-traffic request) is silently
    /// dropped at enqueue; demand requests are bounced for retry instead
    /// (liveness: a core waiting on a dropped demand read would hang).
    SimCmdDrop = 0,
    /// `memsim`: a test-traffic request is enqueued twice.
    SimCmdDup = 1,
    /// `memsim`: an ACT is issued despite a rank-level tRRD/tFAW block —
    /// a transient timing violation the offline `ProtocolChecker` surfaces.
    SimTimingViolation = 2,
    /// `memsim`: a refresh blackout overruns its tRFC window.
    SimRefreshOverrun = 3,
    /// `dram`: a transient single-bit flip in the row under evaluation.
    DramBitFlip = 4,
    /// `dram`: a VRT-style flip-flopping cell — the verdict for the same
    /// content toggles between evaluations.
    DramVrt = 5,
    /// `memcon`: an in-flight test is preempted by a (synthetic) write
    /// mid-quantum.
    TestPreempt = 6,
    /// `memcon`: a torn/partial read-back — the test completes without a
    /// usable verdict.
    TornRead = 7,
    /// `memcon`: the two read passes of a test disagree; the verdict is
    /// ambiguous.
    OracleDisagree = 8,
    /// `memcon::ecc`: a correctable single-bit word error during read-back.
    EccCorrectable = 9,
    /// `memcon::ecc`: an uncorrectable double-bit word error during
    /// read-back.
    EccUncorrectable = 10,
    /// `store`: a snapshot publication is torn — half the image reaches
    /// its temp file, which is never renamed into place.
    StoreTornWrite = 11,
    /// `store`: opening the store reads the newest image short, so it is
    /// skipped in favour of the one before.
    StoreShortRead = 12,
    /// `store`: a snapshot is published with one byte flipped, to be
    /// caught (and skipped) when the store is next opened.
    StoreCorruptRecord = 13,
}

impl Site {
    /// Every site, in index order.
    pub const ALL: [Site; N_SITES] = [
        Site::SimCmdDrop,
        Site::SimCmdDup,
        Site::SimTimingViolation,
        Site::SimRefreshOverrun,
        Site::DramBitFlip,
        Site::DramVrt,
        Site::TestPreempt,
        Site::TornRead,
        Site::OracleDisagree,
        Site::EccCorrectable,
        Site::EccUncorrectable,
        Site::StoreTornWrite,
        Site::StoreShortRead,
        Site::StoreCorruptRecord,
    ];

    /// The site's stable name (used in plan JSON and telemetry counters).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Site::SimCmdDrop => "memsim.cmd_drop",
            Site::SimCmdDup => "memsim.cmd_dup",
            Site::SimTimingViolation => "memsim.timing_violation",
            Site::SimRefreshOverrun => "memsim.refresh_overrun",
            Site::DramBitFlip => "dram.bit_flip",
            Site::DramVrt => "dram.vrt_toggle",
            Site::TestPreempt => "memcon.test_preempt",
            Site::TornRead => "memcon.torn_read",
            Site::OracleDisagree => "memcon.oracle_disagree",
            Site::EccCorrectable => "memcon.ecc_correctable",
            Site::EccUncorrectable => "memcon.ecc_uncorrectable",
            Site::StoreTornWrite => "store.torn_write",
            Site::StoreShortRead => "store.short_read",
            Site::StoreCorruptRecord => "store.corrupt_record",
        }
    }

    /// Parses a stable site name back to the site.
    #[must_use]
    pub fn from_name(name: &str) -> Option<Site> {
        Site::ALL.into_iter().find(|s| s.name() == name)
    }
}

/// When a site's decisions are eligible to fire, in units of the site's
/// decision index (0-based: the *k*-th time the site is consulted).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Schedule {
    /// Every decision is eligible.
    Always,
    /// Only decision `at` is eligible (and it fires regardless of rate,
    /// as long as the rate is positive) — the shrinking workhorse.
    OneShot {
        /// The eligible decision index.
        at: u64,
    },
    /// Decisions `start .. start + len` are eligible.
    Burst {
        /// First eligible decision index.
        start: u64,
        /// Number of eligible decisions.
        len: u64,
    },
}

impl Schedule {
    /// Whether decision `index` is eligible under this schedule.
    #[must_use]
    pub fn admits(&self, index: u64) -> bool {
        match *self {
            Schedule::Always => true,
            Schedule::OneShot { at } => index == at,
            Schedule::Burst { start, len } => index >= start && index - start < len,
        }
    }
}

/// Per-site injection parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SiteSpec {
    /// Firing probability per eligible decision, in `[0, 1]`.
    pub rate: f64,
    /// Which decisions are eligible.
    pub schedule: Schedule,
}

impl SiteSpec {
    /// A spec firing every eligible decision with probability `rate`.
    #[must_use]
    pub fn rate(rate: f64) -> SiteSpec {
        SiteSpec {
            rate,
            schedule: Schedule::Always,
        }
    }
}

/// A seeded, serializable fault plan: which sites inject, how often, when.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Seed of the per-decision hash; two plans with different seeds make
    /// independent decisions at every site.
    pub seed: u64,
    sites: [Option<SiteSpec>; N_SITES],
}

impl FaultPlan {
    /// An empty plan (no site injects) with the given seed.
    #[must_use]
    pub fn new(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            sites: [None; N_SITES],
        }
    }

    /// Builder: sets `site` to `spec`.
    #[must_use]
    pub fn with_site(mut self, site: Site, spec: SiteSpec) -> FaultPlan {
        self.sites[site as usize] = Some(spec);
        self
    }

    /// A plan injecting at **every** site with the same always-eligible
    /// `rate`.
    ///
    /// # Panics
    ///
    /// Panics unless `rate` is a probability.
    #[must_use]
    pub fn uniform(seed: u64, rate: f64) -> FaultPlan {
        assert!((0.0..=1.0).contains(&rate), "rate must be in [0, 1]");
        let mut plan = FaultPlan::new(seed);
        for site in Site::ALL {
            plan.sites[site as usize] = Some(SiteSpec::rate(rate));
        }
        plan
    }

    /// The spec of `site`, if it injects at all.
    #[must_use]
    pub fn site(&self, site: Site) -> Option<&SiteSpec> {
        self.sites[site as usize].as_ref()
    }

    /// Derives the shard-`shard` variant of this plan: identical site
    /// specs, but the decision-stream seed reseeded through the avalanche
    /// mix. A fleet hands each shard engine its own derived plan so every
    /// shard draws an independent fault stream that replays bit-for-bit
    /// regardless of which worker thread steps the shard — per-shard keyed
    /// sessions instead of one shared, order-sensitive stream.
    #[must_use]
    pub fn for_shard(&self, shard: u64) -> FaultPlan {
        FaultPlan {
            seed: mix64(self.seed ^ mix64(shard ^ 0x5EED_F1EE_7A5D_0001)),
            sites: self.sites,
        }
    }

    /// Whether decision `index` at `site` fires. Pure in
    /// `(self.seed, site, index)`.
    #[must_use]
    pub fn fires(&self, site: Site, index: u64) -> bool {
        let Some(spec) = &self.sites[site as usize] else {
            return false;
        };
        if spec.rate <= 0.0 || !spec.schedule.admits(index) {
            return false;
        }
        if spec.rate >= 1.0 || matches!(spec.schedule, Schedule::OneShot { .. }) {
            // OneShot schedules fire deterministically at their single
            // eligible index: that is what makes shrinking monotone.
            return true;
        }
        let h = mix64(self.seed ^ mix64(site as u64) ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        // Top 53 bits → uniform in [0, 1).
        ((h >> 11) as f64) * (1.0 / (1u64 << 53) as f64) < spec.rate
    }

    /// Serializes to the `memcon-faultplan/v1` JSON shape.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let mut sites = Json::obj();
        for site in Site::ALL {
            let Some(spec) = &self.sites[site as usize] else {
                continue;
            };
            let schedule = match spec.schedule {
                Schedule::Always => Json::obj().field("kind", "always"),
                Schedule::OneShot { at } => Json::obj().field("kind", "one_shot").field("at", at),
                Schedule::Burst { start, len } => Json::obj()
                    .field("kind", "burst")
                    .field("start", start)
                    .field("len", len),
            };
            sites.set(
                site.name(),
                Json::obj()
                    .field("rate", spec.rate)
                    .field("schedule", schedule),
            );
        }
        Json::obj()
            .field("schema", SCHEMA)
            .field("seed", self.seed)
            .field("sites", sites)
    }

    /// Parses a `memcon-faultplan/v1` JSON document.
    ///
    /// # Errors
    ///
    /// Returns a description of the first structural problem: bad JSON,
    /// wrong schema, unknown site name, or an out-of-range rate.
    pub fn parse(text: &str) -> Result<FaultPlan, String> {
        let json = Json::parse(text)?;
        let schema = json.get("schema").and_then(Json::as_str).unwrap_or("");
        if schema != SCHEMA {
            return Err(format!("expected schema {SCHEMA}, got {schema:?}"));
        }
        let seed = json
            .get("seed")
            .and_then(Json::as_u64)
            .ok_or("plan is missing an integer seed")?;
        let mut plan = FaultPlan::new(seed);
        let Some(Json::Obj(entries)) = json.get("sites") else {
            return Err("plan is missing the sites object".into());
        };
        for (name, spec) in entries {
            let site =
                Site::from_name(name).ok_or_else(|| format!("unknown fault site {name:?}"))?;
            let rate = spec
                .get("rate")
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("site {name}: missing rate"))?;
            if !(0.0..=1.0).contains(&rate) {
                return Err(format!("site {name}: rate {rate} is not a probability"));
            }
            let sched = spec.get("schedule");
            let kind = sched
                .and_then(|s| s.get("kind"))
                .and_then(Json::as_str)
                .unwrap_or("always");
            let field = |key: &str| sched.and_then(|s| s.get(key)).and_then(Json::as_u64);
            let schedule = match kind {
                "always" => Schedule::Always,
                "one_shot" => Schedule::OneShot {
                    at: field("at").ok_or_else(|| format!("site {name}: one_shot needs at"))?,
                },
                "burst" => Schedule::Burst {
                    start: field("start")
                        .ok_or_else(|| format!("site {name}: burst needs start"))?,
                    len: field("len").ok_or_else(|| format!("site {name}: burst needs len"))?,
                },
                other => return Err(format!("site {name}: unknown schedule kind {other:?}")),
            };
            plan.sites[site as usize] = Some(SiteSpec { rate, schedule });
        }
        Ok(plan)
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static CURRENT: RwLock<Option<Arc<FaultPlan>>> = RwLock::new(None);

/// Whether a plan is installed. One relaxed atomic load — the only cost
/// fault-capable code pays when injection is off.
#[must_use]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// The installed plan, if any.
#[must_use]
pub fn active_plan() -> Option<Arc<FaultPlan>> {
    if !enabled() {
        return None;
    }
    CURRENT
        .read()
        .unwrap_or_else(PoisonError::into_inner)
        .clone()
}

/// Installs `plan` process-wide until the returned guard drops (guards
/// nest LIFO, restoring the previously installed plan). Like
/// `telemetry::install`, concurrent installers must serialize themselves.
#[must_use]
pub fn install(plan: Arc<FaultPlan>) -> PlanGuard {
    let mut cur = CURRENT.write().unwrap_or_else(PoisonError::into_inner);
    let prev = cur.replace(plan);
    ENABLED.store(true, Ordering::Relaxed);
    PlanGuard { prev }
}

/// Guard returned by [`install`]; restores the previous plan (and the
/// enabled flag) when dropped.
#[derive(Debug)]
pub struct PlanGuard {
    prev: Option<Arc<FaultPlan>>,
}

impl Drop for PlanGuard {
    fn drop(&mut self) {
        let mut cur = CURRENT.write().unwrap_or_else(PoisonError::into_inner);
        ENABLED.store(self.prev.is_some(), Ordering::Relaxed);
        *cur = self.prev.take();
    }
}

/// A per-consumer decision stream over a plan.
///
/// Each consumer (one controller, one engine run) owns a session; the
/// session numbers that consumer's decisions per site from zero, so the
/// decision sequence depends only on the consumer's own internally
/// deterministic behavior — never on thread scheduling across consumers.
#[derive(Debug, Clone)]
pub struct FaultSession {
    plan: Arc<FaultPlan>,
    decisions: [u64; N_SITES],
    injected: [u64; N_SITES],
}

impl FaultSession {
    /// A session over the installed plan, or `None` when injection is off.
    #[must_use]
    pub fn begin() -> Option<FaultSession> {
        active_plan().map(FaultSession::with_plan)
    }

    /// A session over an explicit plan (bypasses the global installer —
    /// the thread-safe choice for tests and parallel harnesses).
    #[must_use]
    pub fn with_plan(plan: Arc<FaultPlan>) -> FaultSession {
        FaultSession {
            plan,
            decisions: [0; N_SITES],
            injected: [0; N_SITES],
        }
    }

    /// The plan this session draws from.
    #[must_use]
    pub fn plan(&self) -> &Arc<FaultPlan> {
        &self.plan
    }

    /// Whether the next decision at `site` fires, advancing the site's
    /// decision counter.
    pub fn fires(&mut self, site: Site) -> bool {
        let idx = self.decisions[site as usize];
        self.decisions[site as usize] += 1;
        let hit = self.plan.fires(site, idx);
        if hit {
            self.injected[site as usize] += 1;
            note_fire(site, self.injected[site as usize]);
        }
        hit
    }

    /// Stateless keyed decision (see [`FaultPlan::fires`]) that still
    /// counts injections in this session's tallies.
    pub fn fires_keyed(&mut self, site: Site, key: u64) -> bool {
        let hit = self.plan.fires(site, key);
        if hit {
            self.injected[site as usize] += 1;
            note_fire(site, self.injected[site as usize]);
        }
        hit
    }

    /// Faults injected at `site` so far.
    #[must_use]
    pub fn injected(&self, site: Site) -> u64 {
        self.injected[site as usize]
    }

    /// Per-site injection tallies, indexed like [`Site::ALL`].
    #[must_use]
    pub fn injected_counts(&self) -> [u64; N_SITES] {
        self.injected
    }

    /// The session's field list (see [`memutil::codec`]): the plan, then
    /// both per-site tallies, its full position in its decision streams.
    /// A restored session draws the *same* decision sequence the
    /// checkpointed one would have drawn.
    ///
    /// # Errors
    ///
    /// When decoding, a malformed plan or tally.
    pub fn fields(&mut self, io: &mut Io) -> Result<(), String> {
        let FaultSession {
            plan,
            decisions,
            injected,
        } = self;
        let mut json = plan.to_json().emit();
        io.str(&mut json)?;
        if io.decoding() {
            *plan = Arc::new(FaultPlan::parse(&json)?);
        }
        io.u64s(decisions, "fault decision counts")?;
        io.u64s(injected, "fault injected counts")
    }
}

/// A session over an empty plan: the placeholder a restore overwrites.
impl Default for FaultSession {
    fn default() -> Self {
        FaultSession::with_plan(Arc::new(FaultPlan::new(0)))
    }
}

/// Annotates the calling thread's innermost open tree span with the fault
/// activation: key `fault.<site>`, value = the session's running tally at
/// that site. Fault fires are decided by `(plan seed, site, index)` alone,
/// so stamping them onto timing-class spans cannot perturb simulation
/// state; when no span is open (or telemetry is off) this is a no-op.
fn note_fire(site: Site, nth: u64) {
    if telemetry::enabled() {
        telemetry::annotate(&format!("fault.{}", site.name()), nth);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn site_names_round_trip() {
        for site in Site::ALL {
            assert_eq!(Site::from_name(site.name()), Some(site));
        }
        assert_eq!(Site::from_name("nope"), None);
    }

    #[test]
    fn shard_derivation_is_deterministic_and_independent() {
        let base = FaultPlan::uniform(0xC0FFEE, 0.5);
        let a = base.for_shard(3);
        // Same shard, same derived plan — replayable per-shard streams.
        assert_eq!(a, base.for_shard(3));
        // Site specs carry over unchanged; only the seed is reseeded.
        for site in Site::ALL {
            assert_eq!(a.site(site), base.site(site));
        }
        // Distinct shards (and the base plan) draw distinct streams.
        let seeds: std::collections::HashSet<u64> = (0..64)
            .map(|s| base.for_shard(s).seed)
            .chain([base.seed])
            .collect();
        assert_eq!(seeds.len(), 65);
    }

    #[test]
    fn empty_plan_never_fires() {
        let p = FaultPlan::new(1);
        for site in Site::ALL {
            for i in 0..100 {
                assert!(!p.fires(site, i));
            }
        }
    }

    #[test]
    fn decisions_are_pure_functions_of_seed_site_index() {
        let a = FaultPlan::uniform(42, 0.3);
        let b = FaultPlan::uniform(42, 0.3);
        for site in Site::ALL {
            for i in 0..1000 {
                assert_eq!(a.fires(site, i), b.fires(site, i));
            }
        }
    }

    #[test]
    fn different_seeds_decide_differently() {
        let a = FaultPlan::uniform(1, 0.5);
        let b = FaultPlan::uniform(2, 0.5);
        let diverging = (0..1000)
            .filter(|&i| a.fires(Site::TornRead, i) != b.fires(Site::TornRead, i))
            .count();
        assert!(
            diverging > 100,
            "only {diverging} of 1000 decisions diverge"
        );
    }

    #[test]
    fn rate_is_respected_statistically() {
        let p = FaultPlan::uniform(7, 0.2);
        let n = 50_000;
        let fired = (0..n).filter(|&i| p.fires(Site::DramBitFlip, i)).count();
        let rate = fired as f64 / n as f64;
        assert!((rate - 0.2).abs() < 0.01, "rate {rate}");
    }

    #[test]
    fn zero_and_one_rates_are_exact() {
        let zero = FaultPlan::uniform(3, 0.0);
        let one = FaultPlan::uniform(3, 1.0);
        for i in 0..100 {
            assert!(!zero.fires(Site::TestPreempt, i));
            assert!(one.fires(Site::TestPreempt, i));
        }
    }

    #[test]
    fn one_shot_fires_exactly_once() {
        let p = FaultPlan::new(9).with_site(
            Site::EccUncorrectable,
            SiteSpec {
                rate: 0.5, // any positive rate: one-shots are deterministic
                schedule: Schedule::OneShot { at: 17 },
            },
        );
        let fired: Vec<u64> = (0..100)
            .filter(|&i| p.fires(Site::EccUncorrectable, i))
            .collect();
        assert_eq!(fired, vec![17]);
    }

    #[test]
    fn burst_limits_eligibility() {
        let p = FaultPlan::new(9).with_site(
            Site::TornRead,
            SiteSpec {
                rate: 1.0,
                schedule: Schedule::Burst { start: 10, len: 5 },
            },
        );
        let fired: Vec<u64> = (0..100).filter(|&i| p.fires(Site::TornRead, i)).collect();
        assert_eq!(fired, vec![10, 11, 12, 13, 14]);
    }

    #[test]
    fn json_round_trip() {
        let p = FaultPlan::new(0xDEAD)
            .with_site(Site::TornRead, SiteSpec::rate(0.25))
            .with_site(
                Site::EccUncorrectable,
                SiteSpec {
                    rate: 1.0,
                    schedule: Schedule::OneShot { at: 3 },
                },
            )
            .with_site(
                Site::SimCmdDrop,
                SiteSpec {
                    rate: 0.5,
                    schedule: Schedule::Burst { start: 2, len: 8 },
                },
            );
        let text = p.to_json().emit();
        let back = FaultPlan::parse(&text).expect("round trip");
        assert_eq!(back, p);
    }

    #[test]
    fn parse_rejects_malformed_plans() {
        assert!(FaultPlan::parse("{}").is_err(), "missing schema");
        let wrong = Json::obj().field("schema", "nope/v0").field("seed", 1u64);
        assert!(FaultPlan::parse(&wrong.emit()).is_err());
        let bad_site = Json::obj()
            .field("schema", SCHEMA)
            .field("seed", 1u64)
            .field(
                "sites",
                Json::obj().field("bogus.site", Json::obj().field("rate", 0.1)),
            );
        assert!(FaultPlan::parse(&bad_site.emit()).is_err());
        let bad_rate = Json::obj()
            .field("schema", SCHEMA)
            .field("seed", 1u64)
            .field(
                "sites",
                Json::obj().field("memcon.torn_read", Json::obj().field("rate", 1.5)),
            );
        assert!(FaultPlan::parse(&bad_rate.emit()).is_err());
    }

    #[test]
    fn session_counts_decisions_and_injections() {
        let mut s = FaultSession::with_plan(Arc::new(FaultPlan::uniform(5, 1.0)));
        assert!(s.fires(Site::TornRead));
        assert!(s.fires(Site::TornRead));
        assert!(
            s.fires_keyed(Site::DramBitFlip, u64::MAX),
            "rate 1.0 always fires"
        );
        assert_eq!(s.injected(Site::TornRead), 2);
        assert_eq!(s.injected(Site::DramBitFlip), 1);
        assert_eq!(s.injected_counts().iter().sum::<u64>(), 3);
    }

    #[test]
    fn sessions_replay_identically() {
        let plan = Arc::new(FaultPlan::uniform(11, 0.4));
        let mut a = FaultSession::with_plan(Arc::clone(&plan));
        let mut b = FaultSession::with_plan(plan);
        let da: Vec<bool> = (0..500).map(|_| a.fires(Site::TestPreempt)).collect();
        let db: Vec<bool> = (0..500).map(|_| b.fires(Site::TestPreempt)).collect();
        assert_eq!(da, db);
        assert_eq!(a.injected_counts(), b.injected_counts());
    }

    #[test]
    fn restored_session_continues_the_same_decision_stream() {
        let plan = Arc::new(FaultPlan::uniform(21, 0.4));
        let mut live = FaultSession::with_plan(Arc::clone(&plan));
        let first: Vec<bool> = (0..100).map(|_| live.fires(Site::StoreTornWrite)).collect();
        let bytes = memutil::codec::encode(&mut live, FaultSession::fields);
        let mut resumed = FaultSession::default();
        memutil::codec::decode(&bytes, &mut resumed, "session", FaultSession::fields).unwrap();
        assert_eq!(*resumed.plan(), plan);
        let tail_live: Vec<bool> = (0..100).map(|_| live.fires(Site::StoreTornWrite)).collect();
        let tail_resumed: Vec<bool> = (0..100)
            .map(|_| resumed.fires(Site::StoreTornWrite))
            .collect();
        assert_eq!(tail_live, tail_resumed);
        assert_eq!(live.injected_counts(), resumed.injected_counts());
        assert!(first.iter().any(|&b| b), "rate 0.4 fires in 100 draws");
    }

    #[test]
    fn install_gates_sessions_and_restores_lifo() {
        // The only test in this binary that installs plans, so it owns the
        // process-global state for its duration.
        assert!(!enabled());
        assert!(FaultSession::begin().is_none());
        let outer = Arc::new(FaultPlan::uniform(1, 0.1));
        let inner = Arc::new(FaultPlan::uniform(2, 0.2));
        {
            let _a = install(Arc::clone(&outer));
            assert!(enabled());
            assert_eq!(active_plan().as_deref(), Some(outer.as_ref()));
            {
                let _b = install(Arc::clone(&inner));
                assert_eq!(active_plan().as_deref(), Some(inner.as_ref()));
                assert!(FaultSession::begin().is_some());
            }
            assert_eq!(active_plan().as_deref(), Some(outer.as_ref()), "LIFO");
        }
        assert!(!enabled(), "guard restores the disabled state");
        assert!(active_plan().is_none());
    }
}
