//! Max-min fair rate allocation (progressive filling / water-filling).
//!
//! Given a set of flows, each pinned to the links of its route, the allocation
//! repeatedly finds the most constrained link (smallest equal share for its
//! unfrozen flows), grants that share to every unfrozen flow through it, and
//! freezes them. The result is the classic max-min fair allocation that
//! flow-level models of TCP-like transport converge to, and it is what turns
//! "how many DP pairs cross a ToR" into "how slow does the DP AllReduce get".
//!
//! # The incremental, aggregation-aware solver
//!
//! The textbook progressive-filling loop recomputes per-link user counts from
//! scratch every round and scans every flow to find the ones crossing the
//! bottleneck — `O(rounds × flows × route_len)`, which dominates the replay
//! engine ([`crate::engine`]) where the allocation is re-solved at every flow
//! completion. [`MaxMinSolver`] keeps the same *exact* arithmetic but changes
//! the bookkeeping:
//!
//! * **Route classes.** Flows with identical link sequences provably receive
//!   identical max-min rates (they share every constraint, so they freeze in
//!   the same round at the same share). The solver groups them into weighted
//!   classes — e.g. the per-GPU NIC flows of one node pair, or a DP gradient
//!   ring replayed as several same-route flows — and water-fills over classes,
//!   expanding rates back per flow at the end.
//! * **CSR route storage and a link → class incidence index.** Routes are
//!   flattened into one offsets + links array pair, and a counting-sort pass
//!   inverts them into "which classes cross link `l`", so freezing the
//!   bottleneck touches exactly the flows through it instead of scanning all.
//! * **Incremental user counts and cached shares.** Per-link active weights
//!   and fair shares are maintained by debiting the links of newly frozen
//!   classes, and the bottleneck scan reads a block-min index (a cached
//!   `(min share, first argmin)` per 16-link block, patched on touch and
//!   rescanned per block only when its argmin is invalidated), turning the
//!   per-round cost into `O(links / BLOCK + frozen route entries)` — roughly
//!   `O(total route entries + rounds × bottleneck degree)` overall.
//!
//! The result is **bit-identical** to the naive reference (kept as a
//! `#[cfg(test)]` oracle below and pinned by proptests): the bottleneck choice
//! scans links in the same ascending order with the same strict-minimum rule,
//! the share is computed with the same expression, and capacity debits apply
//! the same `(x − share).max(0)` step once per frozen flow occurrence — a
//! composition that is order-independent within a round because every flow
//! frozen in a round receives the same share.

use hbd_types::GBps;

/// Sentinel class id for local (empty-route) flows, which stay unconstrained.
const NO_CLASS: usize = usize::MAX;

/// Sentinel for an unoccupied grouping-table slot.
const EMPTY_SLOT: u32 = u32::MAX;

/// Links per bottleneck-scan block. The scan keeps a cached
/// `(min share, first argmin)` per block so each water-filling round sweeps
/// `links / BLOCK` cached minima instead of every live link; blocks are
/// rescanned only when their argmin is invalidated.
const BLOCK: usize = 16;

/// Recomputes one block's cached minimum: the smallest share among links with
/// active users, ties resolved to the lowest link index (the naive solver's
/// ascending strict-minimum scan, restricted to the block).
fn rescan_block(
    users: &[usize],
    share: &[f64],
    block_min: &mut [f64],
    block_arg: &mut [usize],
    block: usize,
) {
    let start = block * BLOCK;
    let end = (start + BLOCK).min(users.len());
    let mut best = f64::INFINITY;
    let mut arg = usize::MAX;
    for l in start..end {
        if users[l] > 0 && share[l] < best {
            best = share[l];
            arg = l;
        }
    }
    block_min[block] = best;
    block_arg[block] = arg;
}

/// FxHash-style mix of a route's link indices. Deterministic (no per-process
/// seeding): the hash steers open-addressing probes only, so collisions can
/// never change the grouping — correctness rests on the slice-equality check.
fn hash_route(route: &[usize]) -> u64 {
    let mut h: u64 = 0x9e37_79b9_7f4a_7c15;
    for &l in route {
        h = (h ^ l as u64).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
    h ^ (h >> 32)
}

/// A reusable incremental max-min solver.
///
/// All working storage (route classes, the link → class incidence index, the
/// per-link water-filling state) lives in the solver and is recycled between
/// calls, so hot callers like the replay engine solve thousands of allocations
/// without per-event allocation. One-shot callers can use the
/// [`max_min_rates`] convenience wrapper.
#[derive(Debug, Default)]
pub struct MaxMinSolver {
    /// Open-addressing table of class ids for route grouping (`EMPTY_SLOT`
    /// sentinel), sized to a power of two ≥ 2 × flows.
    table: Vec<u32>,
    /// Flow index of each class's first member (its route defines the class).
    class_seed: Vec<usize>,
    /// Flow → class map (`NO_CLASS` for local flows).
    class_of: Vec<usize>,
    /// CSR offsets of the class routes.
    class_offsets: Vec<usize>,
    /// CSR storage of the class routes (flattened link indices).
    class_links: Vec<usize>,
    /// Number of flows in each class.
    class_weight: Vec<usize>,
    /// Solved per-class rate.
    class_rate: Vec<f64>,
    /// Whether a class is frozen at its rate.
    class_frozen: Vec<bool>,
    /// Remaining capacity per link.
    remaining: Vec<f64>,
    /// Cached fair share `(remaining / users).max(0)` per live link,
    /// recomputed only when a freeze touches the link — the bottleneck scan
    /// is then comparison-only.
    share: Vec<f64>,
    /// Active (unfrozen) flow weight per link.
    users: Vec<usize>,
    /// Per block of [`BLOCK`] links: the smallest live share in the block.
    block_min: Vec<f64>,
    /// Per block: the lowest-indexed link achieving `block_min`
    /// (`usize::MAX` when the block has no live link).
    block_arg: Vec<usize>,
    /// CSR offsets of the link → class incidence index.
    incidence_offsets: Vec<usize>,
    /// Fill cursors for building the incidence index.
    incidence_cursor: Vec<usize>,
    /// CSR storage of the incidence index (class ids per link).
    incidence: Vec<usize>,
    /// Per-flow rates of the last solve.
    rates: Vec<f64>,
    /// Water-filling rounds of the last solve.
    rounds: usize,
}

impl MaxMinSolver {
    /// Creates an empty solver (buffers grow on first use).
    pub fn new() -> Self {
        Self::default()
    }

    /// Computes the max-min fair allocation of `flow_links` over
    /// `capacities`, returning one rate per flow in input order (local flows
    /// with an empty route are unconstrained and report `f64::INFINITY`).
    ///
    /// The returned slice aliases the solver's internal buffer and is valid
    /// until the next call; [`MaxMinSolver::rates`] re-borrows it.
    pub fn solve<L: AsRef<[usize]>>(&mut self, capacities: &[GBps], flow_links: &[L]) -> &[f64] {
        let links = capacities.len();
        let flows = flow_links.len();
        self.rounds = 0;

        // --- Route-class grouping via a deterministic open-addressing hash
        // table (no allocation beyond table growth, no sort). Class ids are
        // assigned in first-occurrence flow order; the hash function only
        // steers probing, never outcomes, so the grouping — and therefore the
        // solve — is bit-stable across runs and platforms.
        let capacity = (2 * flows.max(1)).next_power_of_two();
        self.table.clear();
        self.table.resize(capacity, EMPTY_SLOT);
        let mask = capacity - 1;
        self.class_of.clear();
        self.class_of.resize(flows, NO_CLASS);
        self.class_offsets.clear();
        self.class_offsets.push(0);
        self.class_links.clear();
        self.class_weight.clear();
        self.class_seed.clear();
        for f in 0..flows {
            let route = flow_links[f].as_ref();
            if route.is_empty() {
                continue;
            }
            let mut slot = (hash_route(route) as usize) & mask;
            loop {
                let entry = self.table[slot];
                if entry == EMPTY_SLOT {
                    let class = self.class_weight.len();
                    self.table[slot] = class as u32;
                    self.class_links.extend_from_slice(route);
                    self.class_offsets.push(self.class_links.len());
                    self.class_weight.push(1);
                    self.class_seed.push(f);
                    self.class_of[f] = class;
                    break;
                }
                let class = entry as usize;
                if flow_links[self.class_seed[class]].as_ref() == route {
                    self.class_weight[class] += 1;
                    self.class_of[f] = class;
                    break;
                }
                slot = (slot + 1) & mask;
            }
        }
        let classes = self.class_weight.len();
        self.class_rate.clear();
        self.class_rate.resize(classes, f64::INFINITY);
        self.class_frozen.clear();
        self.class_frozen.resize(classes, false);

        // --- Per-link active weight and the link → class incidence index
        // (counting sort over the flattened class routes).
        self.users.clear();
        self.users.resize(links, 0);
        self.incidence_offsets.clear();
        self.incidence_offsets.resize(links + 1, 0);
        for c in 0..classes {
            let weight = self.class_weight[c];
            for i in self.class_offsets[c]..self.class_offsets[c + 1] {
                let l = self.class_links[i];
                self.users[l] += weight;
                self.incidence_offsets[l + 1] += 1;
            }
        }
        for l in 0..links {
            self.incidence_offsets[l + 1] += self.incidence_offsets[l];
        }
        self.incidence_cursor.clear();
        self.incidence_cursor
            .extend_from_slice(&self.incidence_offsets[..links]);
        self.incidence.clear();
        self.incidence.resize(self.class_links.len(), 0);
        for c in 0..classes {
            for i in self.class_offsets[c]..self.class_offsets[c + 1] {
                let l = self.class_links[i];
                self.incidence[self.incidence_cursor[l]] = c;
                self.incidence_cursor[l] += 1;
            }
        }

        // --- Water-filling state. Shares are cached per link and refreshed
        // only when a freeze debits the link, with the exact expression the
        // naive solver evaluates per round — the bottleneck scan is then a
        // comparison-only sweep of the live links.
        self.remaining.clear();
        self.remaining.extend(capacities.iter().map(|c| c.value()));
        self.share.clear();
        self.share.resize(links, f64::INFINITY);
        for l in 0..links {
            if self.users[l] > 0 {
                self.share[l] = (self.remaining[l] / self.users[l] as f64).max(0.0);
            }
        }
        let blocks = links.div_ceil(BLOCK);
        self.block_min.clear();
        self.block_min.resize(blocks, f64::INFINITY);
        self.block_arg.clear();
        self.block_arg.resize(blocks, usize::MAX);
        for b in 0..blocks {
            rescan_block(
                &self.users,
                &self.share,
                &mut self.block_min,
                &mut self.block_arg,
                b,
            );
        }

        // --- Rounds: freeze the classes of the most constrained link, debit
        // their capacity, and maintain the touched blocks' cached minima.
        loop {
            // Bottleneck link: smallest cached block minimum, blocks scanned
            // in ascending order with a strict minimum. Composed with each
            // block's internal first-argmin rule this reproduces the naive
            // full scan exactly: the lowest-indexed link achieving the
            // smallest share among links with active users.
            let mut best = f64::INFINITY;
            let mut best_block = usize::MAX;
            for (b, &min) in self.block_min.iter().enumerate() {
                if min < best {
                    best = min;
                    best_block = b;
                }
            }
            if best_block == usize::MAX {
                break;
            }
            let (bottleneck_link, share) = (self.block_arg[best_block], best);
            self.rounds += 1;
            // Freeze every class through the bottleneck at the fair share and
            // debit its links once per member flow — the same per-flow
            // `(x − share).max(0)` steps the naive solver applies.
            let start = self.incidence_offsets[bottleneck_link];
            let end = self.incidence_offsets[bottleneck_link + 1];
            for i in start..end {
                let c = self.incidence[i];
                if self.class_frozen[c] {
                    continue;
                }
                self.class_frozen[c] = true;
                self.class_rate[c] = share;
                let weight = self.class_weight[c];
                for li in self.class_offsets[c]..self.class_offsets[c + 1] {
                    let l = self.class_links[li];
                    for _ in 0..weight {
                        self.remaining[l] = (self.remaining[l] - share).max(0.0);
                    }
                    self.users[l] -= weight;
                    let block = l / BLOCK;
                    if self.users[l] > 0 {
                        let updated = (self.remaining[l] / self.users[l] as f64).max(0.0);
                        self.share[l] = updated;
                        if updated < self.block_min[block]
                            || (updated == self.block_min[block] && l <= self.block_arg[block])
                        {
                            // The refreshed share is the block's new (or tied,
                            // lower-indexed) minimum: update in place.
                            self.block_min[block] = updated;
                            self.block_arg[block] = l;
                        } else if self.block_arg[block] == l {
                            // The block's argmin grew: rescan the block.
                            rescan_block(
                                &self.users,
                                &self.share,
                                &mut self.block_min,
                                &mut self.block_arg,
                                block,
                            );
                        }
                    } else if self.block_arg[block] == l {
                        // The block's argmin ran out of active flows.
                        rescan_block(
                            &self.users,
                            &self.share,
                            &mut self.block_min,
                            &mut self.block_arg,
                            block,
                        );
                    }
                }
            }
        }

        // --- Expand class rates back per flow.
        self.rates.clear();
        self.rates.resize(flows, f64::INFINITY);
        for f in 0..flows {
            let c = self.class_of[f];
            if c != NO_CLASS {
                self.rates[f] = self.class_rate[c];
            }
        }
        &self.rates
    }

    /// The per-flow rates of the last [`solve`](MaxMinSolver::solve), in the
    /// same order as its `flow_links` input.
    pub fn rates(&self) -> &[f64] {
        &self.rates
    }

    /// Water-filling rounds the last solve took (one per bottleneck link).
    pub fn last_rounds(&self) -> usize {
        self.rounds
    }
}

/// Computes max-min fair rates.
///
/// * `capacities[l]` — capacity of link `l`.
/// * `flow_links[f]` — the links flow `f` traverses (may be empty for local
///   flows, which are then unconstrained and reported as `f64::INFINITY`).
///   Generic over the route container so hot callers (the replay engine) can
///   pass borrowed `&[usize]` slices without cloning.
///
/// Returns one rate per flow, in the same order. One-shot convenience wrapper
/// over [`MaxMinSolver`]; callers solving in a loop should hold a solver and
/// reuse its buffers.
pub fn max_min_rates<L: AsRef<[usize]>>(capacities: &[GBps], flow_links: &[L]) -> Vec<GBps> {
    let mut solver = MaxMinSolver::new();
    solver.solve(capacities, flow_links);
    solver.rates().iter().copied().map(GBps).collect()
}

/// The naive progressive-filling reference the incremental solver must match
/// bit-for-bit — kept as the test oracle (this is the pre-refactor
/// implementation, verbatim).
#[cfg(test)]
pub(crate) fn naive_max_min_rates<L: AsRef<[usize]>>(
    capacities: &[GBps],
    flow_links: &[L],
) -> Vec<GBps> {
    let mut remaining: Vec<f64> = capacities.iter().map(|c| c.value()).collect();
    let mut rates = vec![f64::INFINITY; flow_links.len()];
    let mut frozen = vec![false; flow_links.len()];

    let mut active: Vec<usize> = flow_links
        .iter()
        .enumerate()
        .filter(|(_, links)| !links.as_ref().is_empty())
        .map(|(f, _)| f)
        .collect();

    while !active.is_empty() {
        let mut users = vec![0usize; remaining.len()];
        for &f in &active {
            for &l in flow_links[f].as_ref() {
                users[l] += 1;
            }
        }
        let mut bottleneck: Option<(usize, f64)> = None;
        for (l, &count) in users.iter().enumerate() {
            if count == 0 {
                continue;
            }
            let share = (remaining[l] / count as f64).max(0.0);
            if bottleneck.map(|(_, s)| share < s).unwrap_or(true) {
                bottleneck = Some((l, share));
            }
        }
        let Some((bottleneck_link, share)) = bottleneck else {
            break;
        };
        let newly_frozen: Vec<usize> = active
            .iter()
            .copied()
            .filter(|&f| flow_links[f].as_ref().contains(&bottleneck_link))
            .collect();
        for &f in &newly_frozen {
            rates[f] = share;
            frozen[f] = true;
            for &l in flow_links[f].as_ref() {
                remaining[l] = (remaining[l] - share).max(0.0);
            }
        }
        active.retain(|&f| !frozen[f]);
    }
    rates.into_iter().map(GBps).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn gbps(values: &[f64]) -> Vec<GBps> {
        values.iter().copied().map(GBps).collect()
    }

    #[test]
    fn single_link_is_shared_equally() {
        let rates = max_min_rates(&gbps(&[100.0]), &[vec![0], vec![0], vec![0], vec![0]]);
        for r in rates {
            assert!((r.value() - 25.0).abs() < 1e-9);
        }
    }

    #[test]
    fn flows_not_sharing_links_get_full_capacity() {
        let rates = max_min_rates(&gbps(&[100.0, 40.0]), &[vec![0], vec![1]]);
        assert!((rates[0].value() - 100.0).abs() < 1e-9);
        assert!((rates[1].value() - 40.0).abs() < 1e-9);
    }

    #[test]
    fn classic_max_min_example() {
        // Three flows, two links of capacity 10:
        //   f0 uses both links, f1 uses link 0, f2 uses link 1.
        // Both links carry two flows, so everyone converges to the equal share
        // of 5 and both links end up exactly full.
        let rates = max_min_rates(&gbps(&[10.0, 10.0]), &[vec![0, 1], vec![0], vec![1]]);
        assert!((rates[0].value() - 5.0).abs() < 1e-9);
        assert!((rates[1].value() - 5.0).abs() < 1e-9);
        assert!((rates[2].value() - 5.0).abs() < 1e-9);
    }

    #[test]
    fn asymmetric_bottlenecks_fill_progressively() {
        // f0 shares link 0 (cap 10) with f1; f1 also crosses link 1 (cap 4).
        // Link 1 freezes f1 at 4 first, leaving 6 for f0 on link 0.
        let rates = max_min_rates(&gbps(&[10.0, 4.0]), &[vec![0], vec![0, 1]]);
        assert!((rates[1].value() - 4.0).abs() < 1e-9);
        assert!((rates[0].value() - 6.0).abs() < 1e-9);
    }

    #[test]
    fn local_flows_are_unconstrained() {
        let rates = max_min_rates(&gbps(&[10.0]), &[vec![], vec![0]]);
        assert!(rates[0].value().is_infinite());
        assert!((rates[1].value() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn empty_inputs_produce_empty_output() {
        assert!(max_min_rates::<Vec<usize>>(&[], &[]).is_empty());
    }

    #[test]
    fn allocation_never_exceeds_any_link_capacity() {
        // Randomised-ish structured check without a rand dependency.
        let capacities = gbps(&[7.0, 13.0, 5.0, 20.0]);
        let flows: Vec<Vec<usize>> = (0..12)
            .map(|f| (0..4).filter(|l| (f + l) % 3 != 0).collect())
            .collect();
        let rates = max_min_rates(&capacities, &flows);
        for (l, cap) in capacities.iter().enumerate() {
            let load: f64 = flows
                .iter()
                .zip(&rates)
                .filter(|(links, _)| links.contains(&l))
                .map(|(_, r)| r.value())
                .sum();
            assert!(load <= cap.value() + 1e-6, "link {l} overloaded: {load}");
        }
    }

    #[test]
    fn identical_routes_collapse_into_one_class() {
        let caps = gbps(&[10.0, 4.0]);
        let flows = vec![vec![0, 1], vec![0, 1], vec![0], vec![0, 1]];
        let mut solver = MaxMinSolver::new();
        solver.solve(&caps, &flows);
        assert_eq!(solver.class_weight.len(), 2);
        let rates = solver.rates();
        assert_eq!(rates[0].to_bits(), rates[1].to_bits());
        assert_eq!(rates[0].to_bits(), rates[3].to_bits());
    }

    #[test]
    fn solver_reuse_matches_fresh_solves() {
        // The same solver instance must fully reset its scratch between
        // solves — including shrinking inputs.
        let mut solver = MaxMinSolver::new();
        let scenarios: Vec<(Vec<GBps>, Vec<Vec<usize>>)> = vec![
            (gbps(&[10.0, 10.0]), vec![vec![0, 1], vec![0], vec![1]]),
            (gbps(&[7.0]), vec![vec![0], vec![0]]),
            (gbps(&[10.0, 4.0, 2.0]), vec![vec![0, 1], vec![2], vec![]]),
            (gbps(&[5.0]), vec![]),
            (gbps(&[10.0, 10.0]), vec![vec![0, 1], vec![0], vec![1]]),
        ];
        for (caps, flows) in &scenarios {
            let reused: Vec<f64> = solver.solve(caps, flows).to_vec();
            let fresh: Vec<f64> = MaxMinSolver::new().solve(caps, flows).to_vec();
            let naive = naive_max_min_rates(caps, flows);
            assert_eq!(reused.len(), fresh.len());
            for ((a, b), n) in reused.iter().zip(&fresh).zip(&naive) {
                assert_eq!(a.to_bits(), b.to_bits());
                assert_eq!(a.to_bits(), n.value().to_bits());
            }
        }
    }

    /// Random scenarios: up to 8 links, up to 24 flows over random non-empty
    /// link subsets, with a duplication factor so route classes actually form.
    fn arbitrary_scenario() -> impl Strategy<Value = (Vec<f64>, Vec<Vec<usize>>)> {
        (1usize..8).prop_flat_map(|links| {
            let caps = proptest::collection::vec(1.0f64..1000.0, links);
            let flows = proptest::collection::vec(
                (
                    proptest::collection::btree_set(0usize..links, 1..=links),
                    1usize..4,
                ),
                1..24,
            )
            .prop_map(|sets| {
                let mut all: Vec<Vec<usize>> = Vec::new();
                for (set, copies) in sets {
                    let route: Vec<usize> = set.into_iter().collect();
                    for _ in 0..copies {
                        all.push(route.clone());
                    }
                }
                all
            });
            (caps, flows)
        })
    }

    proptest! {
        /// The incremental, class-aggregated solver is bit-identical to the
        /// naive progressive-filling oracle.
        #[test]
        fn incremental_solver_matches_naive_oracle_bitwise(
            (caps, flows) in arbitrary_scenario()
        ) {
            let caps: Vec<GBps> = caps.into_iter().map(GBps).collect();
            let fast = max_min_rates(&caps, &flows);
            let naive = naive_max_min_rates(&caps, &flows);
            prop_assert_eq!(fast.len(), naive.len());
            for (f, (a, b)) in fast.iter().zip(&naive).enumerate() {
                prop_assert_eq!(
                    a.value().to_bits(), b.value().to_bits(),
                    "flow {}: fast {} != naive {}", f, a.value(), b.value()
                );
            }
        }

        /// Local flows mixed into a scenario stay at infinity and do not
        /// perturb the constrained flows (still bitwise vs the oracle).
        #[test]
        fn local_flows_do_not_perturb_the_allocation(
            (caps, mut flows) in arbitrary_scenario(),
            locals in 1usize..4,
        ) {
            for _ in 0..locals {
                flows.insert(flows.len() / 2, Vec::new());
            }
            let caps: Vec<GBps> = caps.into_iter().map(GBps).collect();
            let fast = max_min_rates(&caps, &flows);
            let naive = naive_max_min_rates(&caps, &flows);
            for (a, b) in fast.iter().zip(&naive) {
                prop_assert_eq!(a.value().to_bits(), b.value().to_bits());
            }
        }

        /// A reused solver (buffers dirty from a previous, different solve)
        /// still matches the oracle bitwise.
        #[test]
        fn reused_solver_matches_oracle_bitwise(
            (caps_a, flows_a) in arbitrary_scenario(),
            (caps_b, flows_b) in arbitrary_scenario(),
        ) {
            let caps_a: Vec<GBps> = caps_a.into_iter().map(GBps).collect();
            let caps_b: Vec<GBps> = caps_b.into_iter().map(GBps).collect();
            let mut solver = MaxMinSolver::new();
            solver.solve(&caps_a, &flows_a);
            let second: Vec<f64> = solver.solve(&caps_b, &flows_b).to_vec();
            let naive = naive_max_min_rates(&caps_b, &flows_b);
            for (a, b) in second.iter().zip(&naive) {
                prop_assert_eq!(a.to_bits(), b.value().to_bits());
            }
        }
    }
}
