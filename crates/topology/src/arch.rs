//! The common interface of every HBD architecture, plus the utilization report
//! that the fault-resilience experiments are built on.
//!
//! §2.1 of the paper defines the **GPU waste ratio** of an HBD as
//! `{(HBD_size − N_fault) mod TP_size} / HBD_size` — the healthy GPUs that
//! cannot be used because of fragmentation, topology disconnection or bandwidth
//! degradation. This module generalises that formula to a per-architecture
//! [`UtilizationReport`], letting every architecture apply its own placement
//! constraints (NVLink domains, TPU cubes, ring segments, ...).

use hbd_types::NodeId;
use serde::{Deserialize, Serialize};

/// The set of currently-faulty nodes.
///
/// Faults are tracked at node granularity because the production trace the
/// paper uses records node-level fault events (most are GPU faults, and a node
/// with any faulty GPU is taken out of service for training).
///
/// Internally this is a dense `u64`-word bitset indexed by node id — the
/// fault-resilience sweeps probe `is_faulty` for every node of the cluster at
/// every trace instant, so membership must be O(1) and counting O(words).
/// The serialised form is unchanged from the original `BTreeSet` version: an
/// object holding the sorted faulty-node list (`{"nodes": [3, 17, ...]}`).
#[derive(Clone, Default, Eq)]
pub struct FaultSet {
    words: Vec<u64>,
    len: usize,
}

const WORD_BITS: usize = u64::BITS as usize;

/// The bits of word `w` that hold ids in `lo..hi`, for a word that
/// overlaps the range (`lo / 64 <= w <= (hi - 1) / 64`).
fn range_mask(w: usize, lo: usize, hi: usize) -> u64 {
    let base = w * WORD_BITS;
    let low = if lo > base { !0u64 << (lo - base) } else { !0 };
    let high = if hi < base + WORD_BITS {
        !0u64 >> (base + WORD_BITS - hi)
    } else {
        !0
    };
    low & high
}

/// The ids of the set bits of `word`, the `w`-th word, in ascending order.
fn word_ids(w: usize, word: u64) -> impl Iterator<Item = NodeId> {
    std::iter::successors((word != 0).then_some(word), |v| {
        let rest = v & (v - 1);
        (rest != 0).then_some(rest)
    })
    .map(move |v| NodeId(w * WORD_BITS + v.trailing_zeros() as usize))
}

impl FaultSet {
    /// Creates an empty fault set (fully healthy cluster).
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a fault set from an iterator of faulty nodes.
    pub fn from_nodes<I: IntoIterator<Item = NodeId>>(nodes: I) -> Self {
        let mut set = FaultSet::new();
        for node in nodes {
            set.add(node);
        }
        set
    }

    /// Creates a fault set for a cluster of `cluster_nodes` nodes: the word
    /// storage is sized once up front and ids at or beyond `cluster_nodes`
    /// are ignored. This is the per-instant constructor of the trace replays,
    /// whose traces may cover more nodes than the architecture under study.
    pub fn from_nodes_clamped<I: IntoIterator<Item = NodeId>>(
        cluster_nodes: usize,
        nodes: I,
    ) -> Self {
        let mut set = FaultSet {
            words: vec![0; cluster_nodes.div_ceil(WORD_BITS)],
            len: 0,
        };
        for node in nodes {
            if node.index() < cluster_nodes {
                set.add(node);
            }
        }
        set
    }

    /// Marks a node as faulty. Returns `true` if it was previously healthy.
    pub fn add(&mut self, node: NodeId) -> bool {
        let (word, bit) = (node.index() / WORD_BITS, node.index() % WORD_BITS);
        if word >= self.words.len() {
            self.words.resize(word + 1, 0);
        }
        let mask = 1u64 << bit;
        let newly = self.words[word] & mask == 0;
        self.words[word] |= mask;
        self.len += newly as usize;
        newly
    }

    /// Marks a node as repaired. Returns `true` if it was previously faulty.
    pub fn remove(&mut self, node: NodeId) -> bool {
        let (word, bit) = (node.index() / WORD_BITS, node.index() % WORD_BITS);
        let Some(slot) = self.words.get_mut(word) else {
            return false;
        };
        let mask = 1u64 << bit;
        let was = *slot & mask != 0;
        *slot &= !mask;
        self.len -= was as usize;
        was
    }

    /// Whether the given node is faulty.
    pub fn is_faulty(&self, node: NodeId) -> bool {
        let (word, bit) = (node.index() / WORD_BITS, node.index() % WORD_BITS);
        self.words.get(word).is_some_and(|w| w & (1u64 << bit) != 0)
    }

    /// Number of faulty nodes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no node is faulty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Iterates over the faulty nodes in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.words
            .iter()
            .enumerate()
            .flat_map(|(w, &word)| word_ids(w, word))
    }

    /// Fault ratio over a cluster of `total_nodes` nodes.
    pub fn node_fault_ratio(&self, total_nodes: usize) -> f64 {
        if total_nodes == 0 {
            0.0
        } else {
            self.len() as f64 / total_nodes as f64
        }
    }

    /// Number of faulty nodes with ids in `lo..hi` — a masked popcount over
    /// the word range, O(words touched). Every architecture's utilization
    /// report counts faults over its node range (or per fixed-size domain)
    /// with this instead of probing node by node.
    pub fn count_in_range(&self, lo: usize, hi: usize) -> usize {
        if lo >= hi {
            return 0;
        }
        let hi = hi.min(self.words.len() * WORD_BITS);
        if lo >= hi {
            return 0;
        }
        let (lo_word, lo_bit) = (lo / WORD_BITS, lo % WORD_BITS);
        let (hi_word, hi_bit) = (hi / WORD_BITS, hi % WORD_BITS);
        let lo_mask = !0u64 << lo_bit;
        let hi_mask = if hi_bit == 0 {
            0
        } else {
            !0u64 >> (WORD_BITS - hi_bit)
        };
        if lo_word == hi_word {
            return (self.words[lo_word] & lo_mask & hi_mask).count_ones() as usize;
        }
        let mut count = (self.words[lo_word] & lo_mask).count_ones() as usize;
        for &word in &self.words[lo_word + 1..hi_word] {
            count += word.count_ones() as usize;
        }
        if hi_bit != 0 {
            count += (self.words[hi_word] & hi_mask).count_ones() as usize;
        }
        count
    }

    /// Returns `self ∪ other` without mutating either side — the what-if
    /// primitive of the placement service, which overlays hypothetical faults
    /// on a shared snapshot it must not touch.
    #[must_use]
    pub fn union(&self, other: &FaultSet) -> FaultSet {
        let mut merged = self.clone();
        merged.union_with(other);
        merged
    }

    /// The stored word at index `i`, with words past the allocated capacity
    /// reading as all-healthy. The range operations below use this so two
    /// sets with different capacities agree on every range.
    fn word_at(&self, i: usize) -> u64 {
        self.words.get(i).copied().unwrap_or(0)
    }

    /// Whether `self` and `other` agree on every node id in `lo..hi`: a
    /// masked word-wise comparison, O(words touched), that stops at the
    /// first id [`iter_diff_range`](Self::iter_diff_range) would yield.
    #[cfg(test)]
    pub(crate) fn range_eq(&self, other: &FaultSet, lo: usize, hi: usize) -> bool {
        self.iter_diff_range(other, lo, hi).next().is_none()
    }

    /// Iterates in ascending order over the ids in `lo..hi` that are faulty
    /// in exactly one of `self` and `other` — a masked word-wise XOR,
    /// O(words touched + ids yielded). Capacity differences are invisible:
    /// words past either set's storage read as all-healthy.
    pub fn iter_diff_range<'a>(
        &'a self,
        other: &'a FaultSet,
        lo: usize,
        hi: usize,
    ) -> impl Iterator<Item = NodeId> + 'a {
        let hi = hi.min(self.words.len().max(other.words.len()) * WORD_BITS);
        let words = if lo < hi {
            lo / WORD_BITS..(hi - 1) / WORD_BITS + 1
        } else {
            0..0
        };
        words
            .map(move |w| {
                (
                    w,
                    (self.word_at(w) ^ other.word_at(w)) & range_mask(w, lo, hi),
                )
            })
            .filter(|&(_, diff)| diff != 0)
            .flat_map(|(w, diff)| word_ids(w, diff))
    }

    /// Makes `self` agree with `src` on every node id in `lo..hi` and leaves
    /// every other id as it was — a masked word copy, O(words touched), that
    /// keeps [`len`](Self::len) exact. The incremental scratch patch uses it
    /// to carry new raw faults into an expanded set one domain at a time.
    pub fn copy_range(&mut self, src: &FaultSet, lo: usize, hi: usize) {
        let hi = hi.min(self.words.len().max(src.words.len()) * WORD_BITS);
        if lo >= hi {
            return;
        }
        let (lo_word, hi_word) = (lo / WORD_BITS, (hi - 1) / WORD_BITS);
        if hi_word >= self.words.len() {
            self.words.resize(hi_word + 1, 0);
        }
        for w in lo_word..=hi_word {
            let mask = range_mask(w, lo, hi);
            let word = &mut self.words[w];
            let copied = (*word & !mask) | (src.word_at(w) & mask);
            self.len = self.len + copied.count_ones() as usize - word.count_ones() as usize;
            *word = copied;
        }
    }

    /// Iterates over the faulty nodes with ids in `lo..hi` in ascending
    /// order, touching only the words covering the range.
    pub fn iter_range(&self, lo: usize, hi: usize) -> impl Iterator<Item = NodeId> + '_ {
        let hi = hi.min(self.words.len() * WORD_BITS);
        let words = if lo < hi {
            lo / WORD_BITS..(hi - 1) / WORD_BITS + 1
        } else {
            0..0
        };
        words
            .map(move |w| (w, self.words[w] & range_mask(w, lo, hi)))
            .filter(|&(_, word)| word != 0)
            .flat_map(|(w, word)| word_ids(w, word))
    }

    /// Marks every node with an id in `lo..hi` as faulty — a masked word
    /// fill following the `count_in_range` idiom, O(words touched), that
    /// keeps [`len`](Self::len) exact. An empty range changes nothing.
    pub fn insert_range(&mut self, lo: usize, hi: usize) {
        if lo >= hi {
            return;
        }
        let (lo_word, hi_word) = (lo / WORD_BITS, (hi - 1) / WORD_BITS);
        if hi_word >= self.words.len() {
            self.words.resize(hi_word + 1, 0);
        }
        for w in lo_word..=hi_word {
            let mask = range_mask(w, lo, hi);
            let word = &mut self.words[w];
            self.len += (mask & !*word).count_ones() as usize;
            *word |= mask;
        }
    }

    /// Adds every faulty node of `other` to `self` — a word-wise OR,
    /// O(words).
    pub fn union_with(&mut self, other: &FaultSet) {
        if other.words.len() > self.words.len() {
            self.words.resize(other.words.len(), 0);
        }
        let mut len = 0usize;
        for (slot, &word) in self.words.iter_mut().zip(other.words.iter()) {
            *slot |= word;
            len += slot.count_ones() as usize;
        }
        for &word in &self.words[other.words.len()..] {
            len += word.count_ones() as usize;
        }
        self.len = len;
    }
}

impl PartialEq for FaultSet {
    fn eq(&self, other: &Self) -> bool {
        // Capacity (trailing zero words) is not part of the set's identity.
        if self.len != other.len {
            return false;
        }
        let shared = self.words.len().min(other.words.len());
        self.words[..shared] == other.words[..shared]
            && self.words[shared..].iter().all(|&w| w == 0)
            && other.words[shared..].iter().all(|&w| w == 0)
    }
}

impl std::fmt::Debug for FaultSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

// Hand-written serde keeping the wire format of the original
// `struct FaultSet { nodes: BTreeSet<NodeId> }`: an object with a single
// `nodes` key holding the sorted faulty-node array.
impl Serialize for FaultSet {
    fn to_value(&self) -> serde::value::Value {
        let nodes: Vec<serde::value::Value> =
            self.iter().map(|node| Serialize::to_value(&node)).collect();
        let mut map = serde::value::Map::new();
        map.insert(String::from("nodes"), serde::value::Value::Array(nodes));
        serde::value::Value::Object(map)
    }
}

impl Deserialize for FaultSet {
    fn from_value(value: &serde::value::Value) -> Result<Self, serde::de::Error> {
        let object = value.as_object().ok_or_else(|| {
            serde::de::Error::custom(format!("expected object for FaultSet, found {value}"))
        })?;
        let nodes = object
            .get("nodes")
            .ok_or_else(|| serde::de::Error::custom("FaultSet: missing field `nodes`"))?;
        let nodes: Vec<NodeId> = Deserialize::from_value(nodes)?;
        Ok(FaultSet::from_nodes(nodes))
    }
}

impl FromIterator<NodeId> for FaultSet {
    fn from_iter<T: IntoIterator<Item = NodeId>>(iter: T) -> Self {
        Self::from_nodes(iter)
    }
}

/// How many GPUs an architecture can actually put to work under a given fault
/// pattern and TP size.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct UtilizationReport {
    /// Total GPUs in the cluster (healthy + faulty).
    pub total_gpus: usize,
    /// GPUs on faulty nodes.
    pub faulty_gpus: usize,
    /// Healthy GPUs that can be organised into complete TP groups under the
    /// architecture's placement constraints.
    pub usable_gpus: usize,
    /// Healthy GPUs that cannot be used (fragmentation, broken rings, cube
    /// granularity, reserved backups, ...).
    pub wasted_healthy_gpus: usize,
}

impl UtilizationReport {
    /// Builds a report, checking internal consistency.
    pub fn new(total_gpus: usize, faulty_gpus: usize, usable_gpus: usize) -> Self {
        assert!(
            faulty_gpus + usable_gpus <= total_gpus,
            "faulty ({faulty_gpus}) + usable ({usable_gpus}) GPUs exceed total ({total_gpus})"
        );
        UtilizationReport {
            total_gpus,
            faulty_gpus,
            usable_gpus,
            wasted_healthy_gpus: total_gpus - faulty_gpus - usable_gpus,
        }
    }

    /// The paper's *GPU waste ratio*: wasted healthy GPUs over total GPUs.
    pub fn waste_ratio(&self) -> f64 {
        if self.total_gpus == 0 {
            0.0
        } else {
            self.wasted_healthy_gpus as f64 / self.total_gpus as f64
        }
    }

    /// Number of complete TP groups of `tp_size` GPUs that fit in the usable
    /// capacity.
    pub fn tp_groups(&self, tp_size: usize) -> usize {
        assert!(tp_size > 0, "TP size must be positive");
        self.usable_gpus / tp_size
    }
}

/// Which family an architecture belongs to (Table 1 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ArchitectureKind {
    /// Switch chips provide all connectivity (NVL series).
    SwitchCentric,
    /// Direct GPU-to-GPU links, GPUs forward traffic (Dojo, TPUv3, SiP-Ring).
    GpuCentric,
    /// GPU meshes stitched by centralized optical switches (TPUv4/TPUv5p).
    SwitchGpuHybrid,
    /// OCS embedded in every transceiver (InfiniteHBD).
    TransceiverCentric,
    /// The idealised Big-Switch upper bound.
    Ideal,
}

/// Common behaviour of every HBD architecture in the evaluation.
///
/// `Send + Sync` are supertraits so that `&dyn HbdArchitecture` can be shared
/// with the scoped fan-out pool (`hbd_types::par`) — every implementor is
/// plain immutable data.
pub trait HbdArchitecture: Send + Sync {
    /// Human-readable name, matching the legend strings of the paper's figures.
    fn name(&self) -> &str;

    /// Architecture family.
    fn kind(&self) -> ArchitectureKind;

    /// Number of nodes in the cluster.
    fn nodes(&self) -> usize;

    /// GPUs per node.
    fn gpus_per_node(&self) -> usize;

    /// Total GPUs in the cluster.
    fn total_gpus(&self) -> usize {
        self.nodes() * self.gpus_per_node()
    }

    /// Computes how many GPUs can be organised into complete TP groups of
    /// `tp_size` GPUs when the nodes in `faults` are out of service.
    fn utilization(&self, faults: &FaultSet, tp_size: usize) -> UtilizationReport;

    /// The *fault explosion radius* of a single node fault: how many GPUs
    /// (including the faulty node's own) lose full bandwidth when one node
    /// fails in an otherwise healthy cluster. Table 1 compares architectures on
    /// this metric.
    fn fault_explosion_radius(&self, tp_size: usize) -> usize {
        let baseline = self.utilization(&FaultSet::new(), tp_size);
        let mut faults = FaultSet::new();
        faults.add(NodeId(self.nodes() / 2));
        let degraded = self.utilization(&faults, tp_size);
        baseline.usable_gpus.saturating_sub(degraded.usable_gpus)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn fault_set_basic_operations() {
        let mut faults = FaultSet::new();
        assert!(faults.is_empty());
        assert!(faults.add(NodeId(3)));
        assert!(!faults.add(NodeId(3)));
        assert!(faults.is_faulty(NodeId(3)));
        assert!(!faults.is_faulty(NodeId(4)));
        assert_eq!(faults.len(), 1);
        assert!(faults.remove(NodeId(3)));
        assert!(!faults.remove(NodeId(3)));
        assert!(faults.is_empty());
    }

    #[test]
    fn fault_set_from_iterator_deduplicates() {
        let faults: FaultSet = [NodeId(1), NodeId(2), NodeId(1)].into_iter().collect();
        assert_eq!(faults.len(), 2);
        let nodes: Vec<NodeId> = faults.iter().collect();
        assert_eq!(nodes, vec![NodeId(1), NodeId(2)]);
    }

    #[test]
    fn clamped_constructor_filters_and_matches_filtered_from_nodes() {
        let ids = [
            NodeId(0),
            NodeId(63),
            NodeId(64),
            NodeId(719),
            NodeId(720),
            NodeId(901),
        ];
        let clamped = FaultSet::from_nodes_clamped(720, ids);
        let filtered = FaultSet::from_nodes(ids.into_iter().filter(|n| n.index() < 720));
        assert_eq!(clamped, filtered);
        assert_eq!(clamped.len(), 4);
        assert!(!clamped.is_faulty(NodeId(720)));
        // Degenerate cluster sizes behave.
        assert!(FaultSet::from_nodes_clamped(0, [NodeId(0)]).is_empty());
    }

    #[test]
    fn equality_ignores_bitset_capacity() {
        // Two sets with the same members must compare equal even when their
        // word vectors have different lengths (e.g. after a remove).
        let mut a = FaultSet::from_nodes([NodeId(3), NodeId(500)]);
        a.remove(NodeId(500));
        let b = FaultSet::from_nodes([NodeId(3)]);
        assert_eq!(a, b);
        assert_eq!(b, a);
        assert_ne!(a, FaultSet::from_nodes([NodeId(4)]));
        assert_ne!(a, FaultSet::new());
    }

    #[test]
    fn iter_is_ascending_across_words() {
        let ids = [0usize, 1, 63, 64, 65, 127, 128, 400];
        let faults = FaultSet::from_nodes(ids.iter().rev().map(|&i| NodeId(i)));
        let out: Vec<usize> = faults.iter().map(|n| n.index()).collect();
        assert_eq!(out, ids);
        assert_eq!(faults.len(), ids.len());
    }

    #[test]
    fn count_in_range_is_a_masked_popcount() {
        let faults = FaultSet::from_nodes([0, 5, 63, 64, 100, 130].map(NodeId));
        assert_eq!(faults.count_in_range(0, 200), 6);
        assert_eq!(faults.count_in_range(0, 64), 3);
        assert_eq!(faults.count_in_range(63, 65), 2);
        assert_eq!(faults.count_in_range(64, 64), 0);
        assert_eq!(faults.count_in_range(101, 130), 0);
        assert_eq!(faults.count_in_range(100, 131), 2);
        // Ranges past the stored words are all healthy.
        assert_eq!(faults.count_in_range(500, 1000), 0);
        assert_eq!(faults.count_in_range(10, 5), 0);
    }

    #[test]
    fn range_eq_compares_masked_words() {
        let a = FaultSet::from_nodes([0, 5, 63, 64, 100, 130].map(NodeId));
        let mut b = a.clone();
        assert!(a.range_eq(&b, 0, 200));
        b.remove(NodeId(100));
        assert!(a.range_eq(&b, 0, 100));
        assert!(a.range_eq(&b, 101, 200));
        assert!(!a.range_eq(&b, 100, 101));
        assert!(!a.range_eq(&b, 0, 200));
        // Degenerate and out-of-capacity ranges always agree.
        assert!(a.range_eq(&b, 64, 64));
        assert!(a.range_eq(&b, 10, 5));
        assert!(a.range_eq(&b, 500, 10_000));
        // Capacity differences are invisible: a freshly-allocated empty set
        // agrees with a trimmed one everywhere it has no bits.
        let wide = FaultSet::from_nodes_clamped(4096, [NodeId(70)]);
        let narrow = FaultSet::from_nodes([NodeId(70)]);
        assert!(wide.range_eq(&narrow, 0, 4096));
        assert!(narrow.range_eq(&wide, 0, 4096));
    }

    #[test]
    fn iter_range_is_the_masked_iterator() {
        let faults = FaultSet::from_nodes([0, 5, 63, 64, 100, 130].map(NodeId));
        let ids = |lo, hi| {
            faults
                .iter_range(lo, hi)
                .map(|n| n.index())
                .collect::<Vec<_>>()
        };
        assert_eq!(ids(0, 200), vec![0, 5, 63, 64, 100, 130]);
        assert_eq!(ids(5, 64), vec![5, 63]);
        assert_eq!(ids(64, 64), Vec::<usize>::new());
        assert_eq!(ids(64, 65), vec![64]);
        assert_eq!(ids(101, 130), Vec::<usize>::new());
        assert_eq!(ids(500, 1000), Vec::<usize>::new());
        assert_eq!(ids(10, 5), Vec::<usize>::new());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// A range fill equals per-bit `add`s over the same ids, word for
        /// word and in `len`, for ranges crossing word boundaries on top of
        /// random members.
        #[test]
        fn insert_range_is_a_per_bit_add(
            members in proptest::collection::vec(0usize..400, 0..40),
            lo in 0usize..300,
            width in 0usize..200,
        ) {
            let mut filled = FaultSet::from_nodes(members.iter().map(|&id| NodeId(id)));
            let mut added = filled.clone();
            filled.insert_range(lo, lo + width);
            for id in lo..lo + width {
                added.add(NodeId(id));
            }
            prop_assert_eq!(filled.len(), added.len());
            prop_assert_eq!(&filled.words, &added.words);
        }

        /// The masked XOR iterator yields exactly the ids where per-bit
        /// membership differs, and a range copy equals per-bit `add` /
        /// `remove` over the same ids, in `len` too. The sets differ in
        /// capacity, so words past one set's storage are covered.
        #[test]
        fn range_diff_and_copy_are_per_bit(
            dst in proptest::collection::vec(0usize..300, 0..40),
            src in proptest::collection::vec(0usize..400, 0..40),
            lo in 0usize..400,
            width in 0usize..200,
        ) {
            let mut copied = FaultSet::from_nodes(dst.iter().map(|&id| NodeId(id)));
            let src = FaultSet::from_nodes(src.iter().map(|&id| NodeId(id)));
            let hi = lo + width;
            let differing: Vec<usize> = (lo..hi)
                .filter(|&id| copied.is_faulty(NodeId(id)) != src.is_faulty(NodeId(id)))
                .collect();
            let diff: Vec<usize> = copied.iter_diff_range(&src, lo, hi).map(|n| n.index()).collect();
            prop_assert_eq!(&diff, &differing);
            prop_assert_eq!(copied.range_eq(&src, lo, hi), differing.is_empty());
            let mut per_bit = copied.clone();
            for id in lo..hi {
                if src.is_faulty(NodeId(id)) {
                    per_bit.add(NodeId(id));
                } else {
                    per_bit.remove(NodeId(id));
                }
            }
            copied.copy_range(&src, lo, hi);
            prop_assert_eq!(copied.len(), per_bit.len());
            prop_assert_eq!(&copied, &per_bit);
            prop_assert!(copied.range_eq(&src, lo, hi));
        }
    }

    #[test]
    fn union_with_merges_and_recounts() {
        let mut a = FaultSet::from_nodes([NodeId(1), NodeId(70)]);
        let b = FaultSet::from_nodes([NodeId(1), NodeId(2), NodeId(300)]);
        a.union_with(&b);
        assert_eq!(a.len(), 4);
        let expect = FaultSet::from_nodes([NodeId(1), NodeId(2), NodeId(70), NodeId(300)]);
        assert_eq!(a, expect);
        // Union with a shorter set keeps the longer tail.
        let mut c = FaultSet::from_nodes([NodeId(300)]);
        c.union_with(&FaultSet::from_nodes([NodeId(0)]));
        assert_eq!(c, FaultSet::from_nodes([NodeId(0), NodeId(300)]));
    }

    #[test]
    fn union_is_the_non_mutating_overlay() {
        let base = FaultSet::from_nodes([NodeId(1), NodeId(70)]);
        let extra = FaultSet::from_nodes([NodeId(2), NodeId(300)]);
        let merged = base.union(&extra);
        let expect = FaultSet::from_nodes([NodeId(1), NodeId(2), NodeId(70), NodeId(300)]);
        assert_eq!(merged, expect);
        assert_eq!(merged.len(), 4);
        // Neither operand moved.
        assert_eq!(base, FaultSet::from_nodes([NodeId(1), NodeId(70)]));
        assert_eq!(extra, FaultSet::from_nodes([NodeId(2), NodeId(300)]));
    }

    #[test]
    fn serde_shape_is_the_sorted_node_list() {
        // The bitset rewrite must keep the original wire format: an object
        // with a single `nodes` key holding the ascending faulty-node array.
        let faults = FaultSet::from_nodes([NodeId(130), NodeId(5), NodeId(64)]);
        let json = serde_json::to_string(&faults).expect("serialises");
        assert_eq!(json, r#"{"nodes":[5,64,130]}"#);
        let back: FaultSet = serde_json::from_str(&json).expect("deserialises");
        assert_eq!(back, faults);
        // Empty set round-trips too.
        let empty_json = serde_json::to_string(&FaultSet::new()).expect("serialises");
        assert_eq!(empty_json, r#"{"nodes":[]}"#);
        let back: FaultSet = serde_json::from_str(&empty_json).expect("deserialises");
        assert!(back.is_empty());
    }

    #[test]
    fn fault_ratio_is_fraction_of_nodes() {
        let faults = FaultSet::from_nodes([NodeId(0), NodeId(5)]);
        assert!((faults.node_fault_ratio(100) - 0.02).abs() < 1e-12);
        assert_eq!(faults.node_fault_ratio(0), 0.0);
    }

    #[test]
    fn utilization_report_accounts_for_every_gpu() {
        let report = UtilizationReport::new(2880, 40, 2816);
        assert_eq!(report.wasted_healthy_gpus, 24);
        assert_eq!(report.usable_gpus + report.wasted_healthy_gpus, 2840);
        assert!((report.waste_ratio() - 24.0 / 2880.0).abs() < 1e-12);
        assert_eq!(report.tp_groups(32), 88);
    }

    #[test]
    #[should_panic(expected = "exceed total")]
    fn inconsistent_report_is_rejected() {
        let _ = UtilizationReport::new(100, 60, 60);
    }

    #[test]
    fn empty_cluster_report_is_all_zero() {
        let report = UtilizationReport::new(0, 0, 0);
        assert_eq!(report.waste_ratio(), 0.0);
        assert_eq!(report.tp_groups(8), 0);
    }
}
