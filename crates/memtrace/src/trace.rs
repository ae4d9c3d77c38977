//! Write-trace container and interval extraction.
//!
//! A [`WriteTrace`] is the time-ordered sequence of `(time, page)` write
//! events a bus tracer would capture, plus the trace duration and page
//! count. Every downstream consumer — the statistics of Figs. 7–12, PRIL,
//! and the MEMCON engine — reads traces through this type.
//!
//! # Layout
//!
//! A trace stores each event in 8 bytes: the low 32 bits of its time and
//! its page as a `u32`, so a trace covers at most 2^32 pages. Beside them
//! it keeps a short index with one entry per *segment*, a run of events
//! that share the high 32 bits of their time (2^32 ns, about 4.3 s): the
//! segment's first position and that high word. A 56 s window has 14
//! segments. Readers get [`WriteEvent`] values back through
//! [`WriteTrace::iter`], [`WriteTrace::get`] and
//! [`WriteTrace::segments_from`]; the last is how the MEMCON engine
//! drains writes, walking one segment's slice with its high word fixed.
//! The packed form is canonical, so `==` on traces compares their events,
//! duration and page count.

use crate::NS_PER_MS;

/// One page-granularity write event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct WriteEvent {
    /// Event time in nanoseconds from trace start.
    pub time_ns: u64,
    /// Written page (8 KB granularity, matching the DRAM row size).
    pub page: u64,
}

/// A closed or tail (censored) write interval of one page.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interval {
    /// Owning page.
    pub page: u64,
    /// Interval start (time of the write that opened it).
    pub start_ns: u64,
    /// Interval length.
    pub len_ns: u64,
    /// Whether the interval was closed by a subsequent write (`true`) or ran
    /// into the end of the trace (`false`, censored).
    pub closed: bool,
}

impl Interval {
    /// Interval length in milliseconds.
    #[must_use]
    pub fn len_ms(&self) -> f64 {
        self.len_ns as f64 / NS_PER_MS as f64
    }
}

/// The most pages a trace can cover: a packed event holds its page in a
/// `u32`.
const MAX_PAGES: u64 = 1 << 32;

/// The bits of a time that a [`Segment`] shares.
const HIGH_WORD: u64 = !0xFFFF_FFFF;

/// One stored event: the low 32 bits of its time and its page.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Packed {
    lo: u32,
    page: u32,
}

/// Where a segment starts: its first event position and its events'
/// shared high time bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct SegmentStart {
    pos: usize,
    base_ns: u64,
}

/// A run of consecutive events of a [`WriteTrace`] that share the high 32
/// bits of their time (see the module's layout section).
#[derive(Debug, Clone, Copy)]
pub struct Segment<'a> {
    base_ns: u64,
    events: &'a [Packed],
}

impl<'a> Segment<'a> {
    /// The segment's events, in time order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = WriteEvent> + 'a {
        let base_ns = self.base_ns;
        self.events.iter().map(move |p| WriteEvent {
            time_ns: base_ns | u64::from(p.lo),
            page: u64::from(p.page),
        })
    }
}

/// A time-ordered page-write trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WriteTrace {
    /// Every event's low time word and page, in time order.
    events: Vec<Packed>,
    /// One entry per segment, in order; empty for an empty trace.
    segments: Vec<SegmentStart>,
    duration_ns: u64,
    n_pages: u64,
}

impl WriteTrace {
    /// Builds a trace from events; sorts them by time (stable on page) and
    /// validates that events fall within `duration_ns` and pages within
    /// `n_pages`.
    ///
    /// # Panics
    ///
    /// Panics if any event lies outside the trace duration or page range,
    /// or if `n_pages` exceeds 2^32.
    #[must_use]
    pub fn new(mut events: Vec<WriteEvent>, duration_ns: u64, n_pages: u64) -> Self {
        assert!(
            n_pages <= MAX_PAGES,
            "{n_pages} pages exceed the trace layout's 2^32"
        );
        // One fused pass: pre-merged producers (the parallel generator)
        // hand events in already sorted, so sortedness is detected while
        // pages are range-checked, and the sort runs only when needed.
        let mut sorted = true;
        let mut pages_ok = true;
        let mut prev = (0u64, 0u64);
        for e in &events {
            sorted &= prev <= (e.time_ns, e.page);
            pages_ok &= e.page < n_pages;
            prev = (e.time_ns, e.page);
        }
        assert!(pages_ok, "event page out of range");
        if !sorted {
            events.sort_unstable();
        }
        if let Some(last) = events.last() {
            assert!(
                last.time_ns <= duration_ns,
                "event at {} ns beyond duration {} ns",
                last.time_ns,
                duration_ns
            );
        }
        // Each segment's end is found by binary search, so the index costs
        // nothing per event.
        let mut segments = Vec::new();
        let mut pos = 0;
        while let Some(e) = events.get(pos) {
            let base_ns = e.time_ns & HIGH_WORD;
            segments.push(SegmentStart { pos, base_ns });
            let last_ns = base_ns | !HIGH_WORD;
            pos += 1 + events[pos + 1..].partition_point(|e| e.time_ns <= last_ns);
        }
        let packed = events
            .iter()
            .map(|e| Packed {
                // The low word; the segment holds the rest.
                lo: e.time_ns as u32,
                // memlint: allow(cast-truncation): pages are below n_pages ≤ 2^32, checked above
                page: e.page as u32,
            })
            .collect();
        WriteTrace {
            events: packed,
            segments,
            duration_ns,
            n_pages,
        }
    }

    /// The events, in time order.
    pub fn iter(&self) -> impl Iterator<Item = WriteEvent> + '_ {
        self.segments_from(0).flat_map(|s| s.iter())
    }

    /// The event at position `i` in time order, if the trace has one.
    #[must_use]
    pub fn get(&self, i: usize) -> Option<WriteEvent> {
        self.segments_from(i).next()?.iter().next()
    }

    /// The events from position `from` on, one [`Segment`] per high time
    /// word: the first is the rest of the segment holding `from`. Yields
    /// nothing when `from` is past the last event.
    pub fn segments_from(&self, from: usize) -> impl Iterator<Item = Segment<'_>> + '_ {
        let first = if from < self.events.len() {
            // The first segment starts at position 0, so one starts at or
            // before `from`.
            self.segments.partition_point(|s| s.pos <= from) - 1
        } else {
            self.segments.len()
        };
        (first..self.segments.len()).map(move |k| {
            let start = self.segments[k].pos.max(from);
            let end = self
                .segments
                .get(k + 1)
                .map_or(self.events.len(), |s| s.pos);
            Segment {
                base_ns: self.segments[k].base_ns,
                events: &self.events[start..end],
            }
        })
    }

    /// Trace duration in nanoseconds.
    #[must_use]
    pub fn duration_ns(&self) -> u64 {
        self.duration_ns
    }

    /// Trace duration in milliseconds.
    #[must_use]
    pub fn duration_ms(&self) -> f64 {
        self.duration_ns as f64 / NS_PER_MS as f64
    }

    /// Number of pages in the traced footprint.
    #[must_use]
    pub fn n_pages(&self) -> u64 {
        self.n_pages
    }

    /// Number of write events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the trace has no events.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// All *closed* write intervals (write → next write of the same page).
    #[must_use]
    pub fn closed_intervals(&self) -> Vec<Interval> {
        self.intervals_impl(false)
    }

    /// All intervals including the censored tail of each page (last write →
    /// end of trace).
    #[must_use]
    pub fn intervals_with_tail(&self) -> Vec<Interval> {
        self.intervals_impl(true)
    }

    fn intervals_impl(&self, include_tail: bool) -> Vec<Interval> {
        // BTreeMap, not HashMap: the tail loop below emits one interval per
        // page, and hash order would make the output ordering differ per
        // process. This is a cold path (once per trace).
        let mut last_write: std::collections::BTreeMap<u64, u64> =
            std::collections::BTreeMap::new();
        let mut out = Vec::new();
        for e in self.iter() {
            if let Some(prev) = last_write.insert(e.page, e.time_ns) {
                out.push(Interval {
                    page: e.page,
                    start_ns: prev,
                    len_ns: e.time_ns - prev,
                    closed: true,
                });
            }
        }
        if include_tail {
            for (page, prev) in last_write {
                out.push(Interval {
                    page,
                    start_ns: prev,
                    len_ns: self.duration_ns - prev,
                    closed: false,
                });
            }
        }
        out
    }

    /// Returns a trace with every per-page interval halved (each page's
    /// timeline compressed ×2 towards its first write) — the cache-pressure
    /// sensitivity transform of paper Fig. 19.
    #[must_use]
    pub fn halved_intervals(&self) -> WriteTrace {
        let mut first_write: std::collections::HashMap<u64, u64> = std::collections::HashMap::new();
        let events = self
            .iter()
            .map(|e| {
                let first = *first_write.entry(e.page).or_insert(e.time_ns);
                WriteEvent {
                    time_ns: first + (e.time_ns - first) / 2,
                    page: e.page,
                }
            })
            .collect();
        WriteTrace::new(events, self.duration_ns, self.n_pages)
    }

    /// Merges several traces onto disjoint page ranges (multi-programmed
    /// composition), keeping the longest duration.
    ///
    /// # Panics
    ///
    /// Panics if `traces` is empty.
    #[must_use]
    pub fn merge(traces: &[WriteTrace]) -> WriteTrace {
        assert!(!traces.is_empty(), "cannot merge zero traces");
        let mut events = Vec::new();
        let mut page_base = 0u64;
        let mut duration = 0u64;
        for t in traces {
            events.extend(t.iter().map(|e| WriteEvent {
                time_ns: e.time_ns,
                page: page_base + e.page,
            }));
            page_base += t.n_pages;
            duration = duration.max(t.duration_ns);
        }
        WriteTrace::new(events, duration, page_base)
    }

    /// Serializes to the compact JSON export format of `trace-gen`:
    /// `{"duration_ns":..,"n_pages":..,"events":[[time_ns,page],..]}`.
    #[must_use]
    pub fn to_json(&self) -> memutil::json::Json {
        use memutil::json::Json;
        let events: Vec<Json> = self
            .iter()
            .map(|e| Json::arr().push(e.time_ns).push(e.page))
            .collect();
        Json::obj()
            .field("duration_ns", self.duration_ns)
            .field("n_pages", self.n_pages)
            .field("events", Json::Arr(events))
    }

    /// Parses the [`WriteTrace::to_json`] format.
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed field, or of a page
    /// count above the layout's 2^32.
    pub fn from_json(json: &memutil::json::Json) -> Result<WriteTrace, String> {
        use memutil::json::Json;
        let duration_ns = json
            .get("duration_ns")
            .and_then(Json::as_u64)
            .ok_or("missing duration_ns")?;
        let n_pages = json
            .get("n_pages")
            .and_then(Json::as_u64)
            .ok_or("missing n_pages")?;
        if n_pages > MAX_PAGES {
            return Err(format!("{n_pages} pages exceed the trace layout's 2^32"));
        }
        let Some(Json::Arr(raw)) = json.get("events") else {
            return Err("missing events array".into());
        };
        let mut events = Vec::with_capacity(raw.len());
        for item in raw {
            let Json::Arr(pair) = item else {
                return Err("event is not a [time_ns, page] pair".into());
            };
            let (Some(time_ns), Some(page)) = (
                pair.first().and_then(Json::as_u64),
                pair.get(1).and_then(Json::as_u64),
            ) else {
                return Err("event pair holds non-integers".into());
            };
            if time_ns > duration_ns {
                return Err(format!("event at {time_ns} ns beyond duration"));
            }
            if page >= n_pages {
                return Err(format!("event page {page} out of range"));
            }
            events.push(WriteEvent { time_ns, page });
        }
        Ok(WriteTrace::new(events, duration_ns, n_pages))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(time_ms: u64, page: u64) -> WriteEvent {
        WriteEvent {
            time_ns: time_ms * NS_PER_MS,
            page,
        }
    }

    #[test]
    fn events_are_sorted_on_construction() {
        let t = WriteTrace::new(vec![ev(5, 0), ev(1, 1), ev(3, 0)], 10 * NS_PER_MS, 2);
        let times: Vec<u64> = t.iter().map(|e| e.time_ns).collect();
        assert_eq!(times, vec![NS_PER_MS, 3 * NS_PER_MS, 5 * NS_PER_MS]);
    }

    #[test]
    fn closed_intervals_per_page() {
        let t = WriteTrace::new(
            vec![ev(0, 0), ev(10, 0), ev(30, 0), ev(5, 1)],
            100 * NS_PER_MS,
            2,
        );
        let mut iv = t.closed_intervals();
        iv.sort_by_key(|i| (i.page, i.start_ns));
        assert_eq!(iv.len(), 2);
        assert_eq!(iv[0].page, 0);
        assert_eq!(iv[0].len_ns, 10 * NS_PER_MS);
        assert_eq!(iv[1].len_ns, 20 * NS_PER_MS);
        assert!(iv.iter().all(|i| i.closed));
    }

    #[test]
    fn tail_intervals_are_censored() {
        let t = WriteTrace::new(vec![ev(0, 0), ev(40, 1)], 100 * NS_PER_MS, 2);
        let iv = t.intervals_with_tail();
        assert_eq!(iv.len(), 2);
        for i in &iv {
            assert!(!i.closed);
        }
        let page1 = iv.iter().find(|i| i.page == 1).unwrap();
        assert_eq!(page1.len_ns, 60 * NS_PER_MS);
    }

    #[test]
    fn halving_halves_closed_intervals() {
        let t = WriteTrace::new(vec![ev(10, 0), ev(30, 0), ev(70, 0)], 100 * NS_PER_MS, 1);
        let h = t.halved_intervals();
        let iv = h.closed_intervals();
        assert_eq!(iv[0].len_ns, 10 * NS_PER_MS);
        assert_eq!(iv[1].len_ns, 20 * NS_PER_MS);
        // First write time unchanged.
        assert_eq!(h.get(0).map(|e| e.time_ns), Some(10 * NS_PER_MS));
    }

    #[test]
    fn merge_offsets_pages() {
        let a = WriteTrace::new(vec![ev(1, 0)], 10 * NS_PER_MS, 2);
        let b = WriteTrace::new(vec![ev(2, 1)], 20 * NS_PER_MS, 3);
        let m = WriteTrace::merge(&[a, b]);
        assert_eq!(m.n_pages(), 5);
        assert_eq!(m.duration_ns(), 20 * NS_PER_MS);
        assert_eq!(m.get(1).map(|e| e.page), Some(3)); // b's page 1 offset by a's 2 pages
    }

    #[test]
    #[should_panic(expected = "beyond duration")]
    fn rejects_event_past_duration() {
        let _ = WriteTrace::new(vec![ev(11, 0)], 10 * NS_PER_MS, 1);
    }

    #[test]
    #[should_panic(expected = "page out of range")]
    fn rejects_bad_page() {
        let _ = WriteTrace::new(vec![ev(1, 5)], 10 * NS_PER_MS, 2);
    }

    #[test]
    #[should_panic(expected = "exceed the trace layout")]
    fn rejects_more_pages_than_the_layout_holds() {
        let _ = WriteTrace::new(vec![], NS_PER_MS, MAX_PAGES + 1);
    }

    #[test]
    fn holds_the_largest_page_the_layout_allows() {
        let last = WriteEvent {
            time_ns: 0,
            page: MAX_PAGES - 1,
        };
        let t = WriteTrace::new(vec![last], NS_PER_MS, MAX_PAGES);
        assert_eq!(t.get(0), Some(last));
    }

    /// The packed layout read back through every accessor agrees with a
    /// plain `Vec<WriteEvent>` model: an event exactly at k·2^32 ns, a gap
    /// spanning two high words, a duration past 2^33 ns, and the empty
    /// trace.
    #[test]
    fn packed_layout_matches_a_plain_event_model() {
        const WORD: u64 = 1 << 32;
        let ev = |time_ns: u64, page: u64| WriteEvent { time_ns, page };
        let duration = 5 * WORD + 17;
        assert!(duration >= 1 << 33);
        let cases = [
            vec![],
            vec![
                ev(0, 0),
                ev(WORD - 1, 2),
                ev(WORD, 1),
                ev(WORD, 2),
                // A gap over high words 2 and 3.
                ev(4 * WORD + 3, 0),
                ev(5 * WORD, 1),
                ev(duration, 2),
            ],
            vec![ev(3 * WORD, 0)],
        ];
        for model in cases {
            let mut shuffled = model.clone();
            shuffled.reverse();
            let t = WriteTrace::new(shuffled, duration, 3);
            assert_eq!(t.len(), model.len());
            assert_eq!(t.is_empty(), model.is_empty());
            assert_eq!(t.iter().collect::<Vec<_>>(), model);
            for i in 0..=model.len() {
                assert_eq!(t.get(i), model.get(i).copied(), "get({i})");
                let segments: Vec<Vec<WriteEvent>> =
                    t.segments_from(i).map(|s| s.iter().collect()).collect();
                assert_eq!(segments.concat(), model[i..], "segments_from({i})");
                for pair in segments.windows(2) {
                    assert!(pair[0][0].time_ns >> 32 < pair[1][0].time_ns >> 32);
                }
                for seg in &segments {
                    assert!(!seg.is_empty());
                    assert!(seg.iter().all(|e| e.time_ns >> 32 == seg[0].time_ns >> 32));
                }
            }
            let json = memutil::json::Json::parse(&t.to_json().emit()).unwrap();
            let back = WriteTrace::from_json(&json).unwrap();
            assert_eq!(back, t);
            assert_eq!(back.iter().collect::<Vec<_>>(), model);
            assert_eq!(t, WriteTrace::new(model.clone(), duration, 3));
            let mut moved = model.clone();
            if let Some(e) = moved.last_mut() {
                e.time_ns ^= WORD;
                assert_ne!(WriteTrace::new(moved, duration + WORD, 3), t);
            }
        }
    }

    #[test]
    fn interval_len_ms() {
        let i = Interval {
            page: 0,
            start_ns: 0,
            len_ns: 2_500_000,
            closed: true,
        };
        assert!((i.len_ms() - 2.5).abs() < 1e-12);
    }

    #[test]
    fn empty_trace() {
        let t = WriteTrace::new(vec![], NS_PER_MS, 0);
        assert!(t.is_empty());
        assert!(t.closed_intervals().is_empty());
        assert!(t.intervals_with_tail().is_empty());
    }

    #[test]
    fn json_roundtrip() {
        let t = WriteTrace::new(vec![ev(1, 0), ev(2, 1)], 10 * NS_PER_MS, 2);
        let s = t.to_json().emit();
        let back = WriteTrace::from_json(&memutil::json::Json::parse(&s).unwrap()).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn json_rejects_malformed_documents() {
        use memutil::json::Json;
        let missing = Json::obj().field("n_pages", 2u64);
        assert!(WriteTrace::from_json(&missing).is_err());
        let bad_page = Json::parse(r#"{"duration_ns":100,"n_pages":1,"events":[[5,9]]}"#).unwrap();
        assert!(WriteTrace::from_json(&bad_page).is_err());
        let too_many_pages = Json::parse(&format!(
            r#"{{"duration_ns":100,"n_pages":{},"events":[[5,0]]}}"#,
            MAX_PAGES + 1
        ))
        .unwrap();
        assert!(WriteTrace::from_json(&too_many_pages)
            .is_err_and(|e| e.contains("exceed the trace layout")));
    }
}
