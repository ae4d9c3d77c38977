//! Causal span trees: parent/child wall-clock spans with annotations.
//!
//! A tree keeps the *structure* of timed work — which shard-step ran
//! inside which fleet epoch, which engine run covered which fault
//! activation. Each registry owns one
//! bounded [`SpanTree`]. Opening a span ([`crate::tree_span`]) pushes onto
//! a thread-local stack, so the innermost open span on the current thread
//! becomes the parent of the next one and the target of
//! [`crate::annotate`] — fault activations, epoch numbers, shard ids all
//! attach to the covering span without any plumbing through call sites.
//!
//! Spans carry wall-clock start offsets and durations, so the whole tree
//! is [`crate::Class::Timing`] data: it lands in the `timing` report
//! section and never enters a determinism diff. The node store is bounded;
//! overflow drops new spans and counts them (no silent caps).

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

use memutil::json::Json;

/// One node of a span tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanNode {
    /// Node id (index into the registry's node store).
    pub id: u64,
    /// Parent node id; `None` for roots.
    pub parent: Option<u64>,
    /// Span name, conventionally `crate.phase` (two segments).
    pub name: String,
    /// Wall-clock offset from tree creation to span open, nanoseconds.
    pub start_ns: u64,
    /// Wall-clock duration; `None` while the span is still open.
    pub dur_ns: Option<u64>,
    /// Annotations attached while the span was innermost, in order.
    pub notes: Vec<(String, u64)>,
}

impl SpanNode {
    /// The node as report JSON.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let mut notes = Json::arr();
        for (key, value) in &self.notes {
            notes = notes.push(
                Json::obj()
                    .field("key", key.as_str())
                    .field("value", *value),
            );
        }
        Json::obj()
            .field("id", self.id)
            .field("parent", self.parent.map_or(Json::Null, Json::UInt))
            .field("name", self.name.as_str())
            .field("start_ns", self.start_ns)
            .field("dur_ns", self.dur_ns.map_or(Json::Null, Json::UInt))
            .field("notes", notes)
    }
}

#[derive(Default)]
struct Nodes {
    list: Vec<SpanNode>,
    generation: u64,
}

/// Bounded store of [`SpanNode`]s sharing the owning registry's enabled
/// flag.
pub struct SpanTree {
    enabled: Arc<AtomicBool>,
    anchor: Instant,
    capacity: usize,
    dropped: AtomicU64,
    nodes: Mutex<Nodes>,
}

thread_local! {
    /// Innermost-open-span stack of this thread: `(tree identity, node id,
    /// generation)` triples. Tree identity keys entries to one registry's
    /// tree so nested `install` scopes cannot cross-link spans.
    static SPAN_STACK: RefCell<Vec<(usize, u64, u64)>> = const { RefCell::new(Vec::new()) };
}

impl SpanTree {
    pub(crate) fn new(enabled: Arc<AtomicBool>, capacity: usize) -> SpanTree {
        SpanTree {
            enabled,
            anchor: Instant::now(),
            capacity: capacity.max(1),
            dropped: AtomicU64::new(0),
            nodes: Mutex::new(Nodes::default()),
        }
    }

    fn identity(self: &Arc<Self>) -> usize {
        Arc::as_ptr(self) as usize
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Nodes> {
        self.nodes.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Opens a span named `name` under this thread's innermost open span.
    /// Returns an inert guard when the registry is disabled or the node
    /// store is full (the drop is counted).
    pub fn open(self: &Arc<Self>, name: &str) -> TreeGuard {
        if !self.enabled.load(Ordering::Relaxed) {
            return TreeGuard { slot: None };
        }
        let identity = self.identity();
        let start_ns = self.anchor.elapsed().as_nanos() as u64;
        let mut nodes = self.lock();
        if nodes.list.len() >= self.capacity {
            drop(nodes);
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return TreeGuard { slot: None };
        }
        let generation = nodes.generation;
        let id = nodes.list.len() as u64;
        let parent = SPAN_STACK.with(|s| {
            s.borrow()
                .iter()
                .rev()
                .find(|(t, _, g)| *t == identity && *g == generation)
                .map(|(_, id, _)| *id)
        });
        nodes.list.push(SpanNode {
            id,
            parent,
            name: name.to_string(),
            start_ns,
            dur_ns: None,
            notes: Vec::new(),
        });
        drop(nodes);
        SPAN_STACK.with(|s| s.borrow_mut().push((identity, id, generation)));
        TreeGuard {
            slot: Some(OpenSlot {
                tree: Arc::clone(self),
                id,
                generation,
                opened: Instant::now(),
            }),
        }
    }

    /// Attaches `(key, value)` to this thread's innermost open span of
    /// this tree. No-op when disabled or no span is open here.
    pub fn annotate(self: &Arc<Self>, key: &str, value: u64) {
        if !self.enabled.load(Ordering::Relaxed) {
            return;
        }
        let identity = self.identity();
        let mut nodes = self.lock();
        let generation = nodes.generation;
        let top = SPAN_STACK.with(|s| {
            s.borrow()
                .iter()
                .rev()
                .find(|(t, _, g)| *t == identity && *g == generation)
                .map(|(_, id, _)| *id)
        });
        if let Some(id) = top {
            if let Some(node) = nodes.list.get_mut(id as usize) {
                node.notes.push((key.to_string(), value));
            }
        }
    }

    fn close(&self, identity: usize, id: u64, generation: u64, dur_ns: u64) {
        let mut nodes = self.lock();
        if nodes.generation == generation {
            if let Some(node) = nodes.list.get_mut(id as usize) {
                node.dur_ns = Some(dur_ns);
            }
        }
        drop(nodes);
        SPAN_STACK.with(|s| {
            let mut stack = s.borrow_mut();
            if let Some(pos) = stack
                .iter()
                .rposition(|(t, i, g)| *t == identity && *i == id && *g == generation)
            {
                stack.remove(pos);
            }
        });
    }

    /// All retained nodes, in open order.
    #[must_use]
    pub fn snapshot(&self) -> Vec<SpanNode> {
        self.lock().list.clone()
    }

    /// Nodes still open (no duration yet) — the "active spans" view the
    /// flight recorder captures.
    #[must_use]
    pub fn active(&self) -> Vec<SpanNode> {
        self.lock()
            .list
            .iter()
            .filter(|n| n.dur_ns.is_none())
            .cloned()
            .collect()
    }

    /// Spans rejected because the node store was full.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    pub(crate) fn clear(&self) {
        let mut nodes = self.lock();
        nodes.list.clear();
        nodes.generation += 1;
        self.dropped.store(0, Ordering::Relaxed);
    }
}

struct OpenSlot {
    tree: Arc<SpanTree>,
    id: u64,
    generation: u64,
    opened: Instant,
}

/// Guard returned by [`SpanTree::open`]; closes the node (recording its
/// duration) and pops the thread-local stack when dropped.
pub struct TreeGuard {
    slot: Option<OpenSlot>,
}

impl TreeGuard {
    /// An inert guard that records nothing on drop.
    #[must_use]
    pub fn disabled() -> TreeGuard {
        TreeGuard { slot: None }
    }
}

impl Drop for TreeGuard {
    fn drop(&mut self) {
        if let Some(slot) = self.slot.take() {
            let dur = slot.opened.elapsed().as_nanos() as u64;
            let identity = Arc::as_ptr(&slot.tree) as usize;
            slot.tree.close(identity, slot.id, slot.generation, dur);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tree(capacity: usize) -> Arc<SpanTree> {
        Arc::new(SpanTree::new(Arc::new(AtomicBool::new(true)), capacity))
    }

    #[test]
    fn children_link_to_the_innermost_open_span() {
        let t = tree(16);
        {
            let _root = t.open("fleet.epoch");
            {
                let _child = t.open("fleet.shard_step");
                t.annotate("node", 3);
            }
            let _sibling = t.open("fleet.shard_step");
        }
        let nodes = t.snapshot();
        assert_eq!(nodes.len(), 3);
        assert_eq!(nodes[0].parent, None);
        assert_eq!(nodes[1].parent, Some(0));
        assert_eq!(nodes[2].parent, Some(0));
        assert_eq!(nodes[1].notes, vec![("node".to_string(), 3)]);
        assert!(nodes.iter().all(|n| n.dur_ns.is_some()), "all closed");
    }

    #[test]
    fn active_lists_only_open_spans() {
        let t = tree(16);
        let _root = t.open("memcon.run");
        {
            let _inner = t.open("memcon.quantum");
        }
        let active = t.active();
        assert_eq!(active.len(), 1);
        assert_eq!(active[0].name, "memcon.run");
    }

    #[test]
    fn overflow_drops_and_counts() {
        let t = tree(1);
        let _a = t.open("a");
        let _b = t.open("b");
        assert_eq!(t.snapshot().len(), 1);
        assert_eq!(t.dropped(), 1);
    }

    #[test]
    fn disabled_tree_is_inert() {
        let t = Arc::new(SpanTree::new(Arc::new(AtomicBool::new(false)), 8));
        {
            let _g = t.open("a");
            t.annotate("k", 1);
        }
        assert!(t.snapshot().is_empty());
    }

    #[test]
    fn guard_straddling_clear_does_not_corrupt_new_nodes() {
        let t = tree(8);
        let g = t.open("old");
        t.clear();
        let _fresh = t.open("fresh");
        drop(g);
        let nodes = t.snapshot();
        assert_eq!(nodes.len(), 1);
        assert_eq!(nodes[0].name, "fresh");
        assert!(
            nodes[0].dur_ns.is_none(),
            "stale guard must not close the reused node id"
        );
    }

    #[test]
    fn two_trees_do_not_cross_link() {
        let a = tree(8);
        let b = tree(8);
        let _ga = a.open("a.root");
        {
            let _gb = b.open("b.root");
        }
        assert_eq!(b.snapshot()[0].parent, None);
    }
}
