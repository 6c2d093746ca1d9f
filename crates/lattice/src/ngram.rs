//! Expected phone-N-gram counting (Eq. 2 of the paper).

use crate::confusion::ConfusionNetwork;
use crate::lattice::Lattice;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Multiplicative hash of a packed N-gram key. The keys are small dense
/// integers from this process, not attacker-chosen strings, so SipHash's
/// flooding resistance buys nothing here and costs most of a count. A key's
/// sum is accumulated in insertion order whatever the hasher, and
/// [`NgramCounts::iter`]'s order is not part of its contract (supervectors
/// sort it away), so the hasher moves no result.
#[derive(Default)]
struct KeyHasher(u64);

impl Hasher for KeyHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u32(b as u32);
        }
    }

    fn write_u32(&mut self, key: u32) {
        self.0 = (self.0 ^ key as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }

    fn finish(&self) -> u64 {
        // The table indexes buckets by the low bits and tags by the top
        // seven; the product's best-mixed bits are the high ones.
        self.0.rotate_left(26)
    }
}

/// Sparse expected counts of order-`n` phone N-grams.
///
/// N-grams are packed into a `u32` key in base `num_phones`
/// (`p_0 · P^{n-1} + … + p_{n-1}`), which covers the paper's configurations
/// comfortably (P ≤ 64, n ≤ 3 ⇒ 2¹⁸ keys).
#[derive(Clone, Debug)]
pub struct NgramCounts {
    order: usize,
    num_phones: usize,
    counts: HashMap<u32, f32, BuildHasherDefault<KeyHasher>>,
    total: f32,
}

impl NgramCounts {
    pub fn new(order: usize, num_phones: usize) -> NgramCounts {
        assert!((1..=3).contains(&order), "orders 1..=3 supported");
        assert!((num_phones as u64).pow(order as u32) <= u32::MAX as u64);
        NgramCounts {
            order,
            num_phones,
            counts: HashMap::default(),
            total: 0.0,
        }
    }

    pub fn order(&self) -> usize {
        self.order
    }

    pub fn num_phones(&self) -> usize {
        self.num_phones
    }

    /// Pack an N-gram (length == order) into its key.
    pub fn key(&self, ngram: &[u16]) -> u32 {
        debug_assert_eq!(ngram.len(), self.order);
        let mut k = 0u32;
        for &p in ngram {
            debug_assert!((p as usize) < self.num_phones);
            k = k * self.num_phones as u32 + p as u32;
        }
        k
    }

    /// Unpack a key back into phones.
    pub fn unpack(&self, mut key: u32) -> Vec<u16> {
        let mut out = vec![0u16; self.order];
        for slot in out.iter_mut().rev() {
            *slot = (key % self.num_phones as u32) as u16;
            key /= self.num_phones as u32;
        }
        out
    }

    /// Add expected mass for an N-gram.
    pub fn add(&mut self, ngram: &[u16], mass: f32) {
        let k = self.key(ngram);
        *self.counts.entry(k).or_insert(0.0) += mass;
        self.total += mass;
    }

    /// Add by precomputed key.
    pub fn add_key(&mut self, key: u32, mass: f32) {
        *self.counts.entry(key).or_insert(0.0) += mass;
        self.total += mass;
    }

    /// Expected count of an N-gram.
    pub fn get(&self, ngram: &[u16]) -> f32 {
        self.counts.get(&self.key(ngram)).copied().unwrap_or(0.0)
    }

    /// Total expected mass (denominator of Eq. 2's probability).
    pub fn total(&self) -> f32 {
        self.total
    }

    /// Number of distinct N-grams observed.
    pub fn num_entries(&self) -> usize {
        self.counts.len()
    }

    /// Iterate `(key, count)`, in no particular order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, f32)> + '_ {
        self.counts.iter().map(|(&k, &v)| (k, v))
    }
}

/// Expected N-gram counts over a confusion network: for every window of
/// `order` consecutive slots, every combination of entries contributes the
/// product of its posteriors — the exact Eq. 2 sum for a sausage lattice.
pub fn expected_ngram_counts_cn(
    net: &ConfusionNetwork,
    order: usize,
    num_phones: usize,
) -> NgramCounts {
    let mut out = NgramCounts::new(order, num_phones);
    if net.num_slots() < order {
        return out;
    }
    let mut ngram = vec![0u16; order];
    for w in 0..=(net.num_slots() - order) {
        fill_window(net, w, 0, 1.0, &mut ngram, &mut out);
    }
    out
}

fn fill_window(
    net: &ConfusionNetwork,
    window_start: usize,
    depth: usize,
    mass: f32,
    ngram: &mut Vec<u16>,
    out: &mut NgramCounts,
) {
    if depth == ngram.len() {
        let key = out.key(ngram);
        out.add_key(key, mass);
        return;
    }
    for e in net.slot(window_start + depth) {
        ngram[depth] = e.phone;
        fill_window(net, window_start, depth + 1, mass * e.prob, ngram, out);
    }
}

/// Expected N-gram counts over a general DAG lattice, the literal Eq. 2:
/// `c(h_i…h_{i+N-1}) = Σ α(e_i) β(e_{i+N-1}) Π ξ-normalized scores`.
///
/// Implemented as: for every `order`-long chain of consecutive edges, add
/// `exp(α(from) + Σ log_score + β(to) - α(end))`.
pub fn expected_ngram_counts_lattice(
    lat: &Lattice,
    order: usize,
    num_phones: usize,
) -> NgramCounts {
    let mut out = NgramCounts::new(order, num_phones);
    let alpha = lat.forward();
    let beta = lat.backward();
    let total = alpha[lat.end()];
    if total == f32::NEG_INFINITY {
        return out;
    }

    // Adjacency by source node for chain extension.
    let mut out_edges: Vec<Vec<usize>> = vec![Vec::new(); lat.num_nodes()];
    for (i, e) in lat.edges().iter().enumerate() {
        out_edges[e.from].push(i);
    }

    let mut ngram = vec![0u16; order];
    for first in 0..lat.edges().len() {
        // Seed the chain with α of its head node; extend_chain accumulates
        // the edge scores and closes with β of the tail node.
        let head_alpha = alpha[lat.edges()[first].from];
        if head_alpha == f32::NEG_INFINITY {
            continue;
        }
        extend_chain(
            lat, &out_edges, first, 0, head_alpha, &beta, total, &mut ngram, &mut out,
        );
    }
    out
}

#[allow(clippy::too_many_arguments)]
fn extend_chain(
    lat: &Lattice,
    out_edges: &[Vec<usize>],
    edge_idx: usize,
    depth: usize,
    score_acc: f32,
    beta: &[f32],
    total: f32,
    ngram: &mut Vec<u16>,
    out: &mut NgramCounts,
) {
    let e = lat.edges()[edge_idx];
    ngram[depth] = e.phone;
    let acc = score_acc + e.log_score;
    if depth + 1 == ngram.len() {
        // Chain mass: α(head.from) + Σ edge scores + β(tail.to) − α(end).
        let lp = acc + beta[e.to] - total;
        let key = out.key(ngram);
        out.add_key(key, lp.exp());
        return;
    }
    for &next in &out_edges[e.to] {
        extend_chain(
            lat,
            out_edges,
            next,
            depth + 1,
            acc,
            beta,
            total,
            ngram,
            out,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::confusion::SlotEntry;
    use crate::lattice::Edge;

    fn cn() -> ConfusionNetwork {
        ConfusionNetwork::new(vec![
            vec![
                SlotEntry {
                    phone: 0,
                    prob: 0.6,
                },
                SlotEntry {
                    phone: 1,
                    prob: 0.4,
                },
            ],
            vec![SlotEntry {
                phone: 2,
                prob: 1.0,
            }],
            vec![
                SlotEntry {
                    phone: 0,
                    prob: 0.5,
                },
                SlotEntry {
                    phone: 2,
                    prob: 0.5,
                },
            ],
        ])
    }

    #[test]
    fn unigram_counts_are_slot_masses() {
        let c = expected_ngram_counts_cn(&cn(), 1, 3);
        assert!((c.get(&[0]) - 1.1).abs() < 1e-5); // 0.6 + 0.5
        assert!((c.get(&[1]) - 0.4).abs() < 1e-5);
        assert!((c.get(&[2]) - 1.5).abs() < 1e-5); // 1.0 + 0.5
        assert!((c.total() - 3.0).abs() < 1e-5);
    }

    #[test]
    fn bigram_counts_multiply_adjacent_posteriors() {
        let c = expected_ngram_counts_cn(&cn(), 2, 3);
        assert!((c.get(&[0, 2]) - 0.6).abs() < 1e-5); // slot0(0)*slot1(2)
        assert!((c.get(&[1, 2]) - 0.4).abs() < 1e-5);
        assert!((c.get(&[2, 0]) - 0.5).abs() < 1e-5); // slot1(2)*slot2(0)
                                                      // Total bigram mass = (#windows) since slots are normalized here.
        assert!((c.total() - 2.0).abs() < 1e-5);
    }

    #[test]
    fn trigram_counts() {
        let c = expected_ngram_counts_cn(&cn(), 3, 3);
        assert!((c.get(&[0, 2, 0]) - 0.3).abs() < 1e-5);
        assert!((c.get(&[1, 2, 2]) - 0.2).abs() < 1e-5);
        assert!((c.total() - 1.0).abs() < 1e-5);
    }

    #[test]
    fn short_network_yields_empty_counts() {
        let net = ConfusionNetwork::new(vec![vec![SlotEntry {
            phone: 0,
            prob: 1.0,
        }]]);
        let c = expected_ngram_counts_cn(&net, 2, 3);
        assert_eq!(c.num_entries(), 0);
        assert_eq!(c.total(), 0.0);
    }

    #[test]
    fn key_pack_unpack_roundtrip() {
        let c = NgramCounts::new(3, 64);
        for ng in [[0u16, 0, 0], [63, 63, 63], [1, 2, 3], [10, 0, 59]] {
            assert_eq!(c.unpack(c.key(&ng)), ng.to_vec());
        }
    }

    #[test]
    fn lattice_counts_match_cn_counts_on_sausage() {
        // Converting the CN to a lattice and counting there must agree.
        let net = cn();
        let via_cn = expected_ngram_counts_cn(&net, 2, 3);
        let via_lat = expected_ngram_counts_lattice(&net.to_lattice(), 2, 3);
        for (key, v) in via_cn.iter() {
            let ng = via_cn.unpack(key);
            assert!(
                (v - via_lat.get(&ng)).abs() < 1e-4,
                "{ng:?}: cn {v} vs lattice {}",
                via_lat.get(&ng)
            );
        }
    }

    #[test]
    fn lattice_counts_on_diamond() {
        // Two paths: A: phones (0,2) weight 0.75; B: phones (1,2) weight 0.25.
        let lat = Lattice::new(
            3,
            vec![
                Edge {
                    from: 0,
                    to: 1,
                    phone: 0,
                    log_score: (0.75f32).ln(),
                },
                Edge {
                    from: 0,
                    to: 1,
                    phone: 1,
                    log_score: (0.25f32).ln(),
                },
                Edge {
                    from: 1,
                    to: 2,
                    phone: 2,
                    log_score: 0.0,
                },
            ],
            0,
            2,
        );
        let c = expected_ngram_counts_lattice(&lat, 2, 3);
        assert!((c.get(&[0, 2]) - 0.75).abs() < 1e-5);
        assert!((c.get(&[1, 2]) - 0.25).abs() < 1e-5);
    }
}
