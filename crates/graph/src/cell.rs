//! Distance cells for the batched relaxation kernels.
//!
//! The hot multi-source kernels (the Theorem-1 hop-bounded exploration in
//! `en_congest_algos::theorem1` and the threshold-restricted cluster kernel in
//! [`crate::restricted`]) process sources in chunks and keep one contiguous
//! row of per-source values per vertex, relaxed by a branchless min loop the
//! compiler vectorises. The cell width is picked per instance: `i32` when the
//! largest possible finite distance fits below its sentinel (twice the SIMD
//! width and half the memory traffic of `u64`), `u64` otherwise. Both use a
//! "quarter of the type's range" sentinel for +∞ so a saturating add can
//! never wrap.
//!
//! This module is the single home of that machinery — the cells and the
//! [`PackedAdjacency`] they relax over — so every batched kernel in the
//! workspace shares one implementation.

use crate::csr::CsrGraph;
use crate::types::{Dist, NodeId, Weight, INFINITY};

/// A distance cell of a batched relaxation kernel.
///
/// Implemented for `i32` (used when the instance's maximum finite distance
/// fits — see [`fits_i32`]) and `u64` (the general fallback, whose domain is
/// the public [`Dist`] domain itself).
pub trait DistCell:
    Copy + Ord + Send + Sync + std::ops::BitXor<Output = Self> + std::ops::BitOr<Output = Self>
{
    /// The unreachable sentinel for this cell width.
    const INF: Self;
    /// The zero distance.
    const ZERO: Self;
    /// Converts an edge weight (checked to fit by the caller).
    fn from_weight(w: Weight) -> Self;
    /// Converts a threshold from the public [`Dist`] domain, clamping values
    /// at or above the sentinel to [`DistCell::INF`]. Clamping preserves the
    /// strict admittance test `value < threshold`: every representable finite
    /// value is below the sentinel, and the sentinel itself never passes.
    fn from_threshold(d: Dist) -> Self;
    /// Converts back into the public [`Dist`] domain (`INF` → [`INFINITY`]).
    fn into_dist(self) -> Dist;
    /// `self + w`, saturating at [`DistCell::INF`].
    fn add_capped(self, w: Self) -> Self;
    /// Packed `(value, neighbour)` key for the branchless argmin parent pass.
    type Key: Copy + Ord;
    /// The largest key (no candidate seen yet).
    const KEY_MAX: Self::Key;
    /// Packs a candidate value and the offering neighbour into one key whose
    /// natural order is (value, neighbour id).
    fn pack(self, nb: u32) -> Self::Key;
    /// The value part of a packed key.
    fn key_value(key: Self::Key) -> Self;
    /// The neighbour part of a packed key.
    fn key_neighbor(key: Self::Key) -> u32;
}

/// Returns `true` when every finite distance of an instance with `n` vertices
/// and maximum edge weight `max_weight` fits below the `i32` cell sentinel
/// (a simple path has at most `n - 1` edges), so the narrow kernel is exact.
pub fn fits_i32(n: usize, max_weight: Weight) -> bool {
    (n as u128).saturating_mul(max_weight as u128) < <i32 as DistCell>::INF as u128
}

/// A CSR adjacency repacked for a batched kernel: `u32` targets and
/// cell-width weights halve the per-sweep memory traffic relative to the
/// `usize`/`u64` arrays of [`CsrGraph`]. Built once per kernel call and
/// shared by every part of the call; arc order is the CSR's.
#[derive(Debug)]
pub struct PackedAdjacency<T> {
    offsets: Vec<usize>,
    targets: Vec<u32>,
    weights: Vec<T>,
}

impl<T: DistCell> PackedAdjacency<T> {
    /// Packs `csr`, whose vertex ids must fit in `u32` and whose weights
    /// must fit the cell (see [`fits_i32`]).
    pub fn new(csr: &CsrGraph) -> Self {
        let n = csr.num_nodes();
        let mut offsets = Vec::with_capacity(n + 1);
        let mut targets = Vec::with_capacity(2 * csr.num_edges());
        let mut weights = Vec::with_capacity(2 * csr.num_edges());
        offsets.push(0);
        for v in 0..n {
            let (ts, ws) = csr.arcs(v);
            targets.extend(ts.iter().map(|&t| t as u32));
            weights.extend(ws.iter().map(|&w| T::from_weight(w)));
            offsets.push(targets.len());
        }
        PackedAdjacency {
            offsets,
            targets,
            weights,
        }
    }

    /// Number of vertices.
    pub fn num_nodes(&self) -> usize {
        self.offsets.len() - 1
    }

    /// The arcs of `v`: targets and weights, in CSR order.
    #[inline]
    pub fn arcs(&self, v: NodeId) -> (&[u32], &[T]) {
        let (lo, hi) = (self.offsets[v], self.offsets[v + 1]);
        (&self.targets[lo..hi], &self.weights[lo..hi])
    }
}

impl DistCell for u64 {
    const INF: u64 = INFINITY;
    const ZERO: u64 = 0;

    #[inline]
    fn from_weight(w: Weight) -> u64 {
        w
    }

    #[inline]
    fn from_threshold(d: Dist) -> u64 {
        d.min(INFINITY)
    }

    #[inline]
    fn into_dist(self) -> Dist {
        self
    }

    #[inline]
    fn add_capped(self, w: u64) -> u64 {
        self.saturating_add(w).min(INFINITY)
    }

    type Key = u128;
    const KEY_MAX: u128 = u128::MAX;

    #[inline]
    fn pack(self, nb: u32) -> u128 {
        ((self as u128) << 32) | nb as u128
    }

    #[inline]
    fn key_value(key: u128) -> u64 {
        (key >> 32) as u64
    }

    #[inline]
    fn key_neighbor(key: u128) -> u32 {
        key as u32
    }
}

// Signed 32-bit cells rather than unsigned: a signed vector min lowers to
// baseline-SSE2 `pcmpgtd` + blend, while unsigned 32-bit min needs SSE4.1.
// All values stay below i32::MAX / 4, so signedness never matters.
impl DistCell for i32 {
    const INF: i32 = i32::MAX / 4;
    const ZERO: i32 = 0;

    #[inline]
    fn from_weight(w: Weight) -> i32 {
        w as i32
    }

    #[inline]
    fn from_threshold(d: Dist) -> i32 {
        if d >= Self::INF as Dist {
            Self::INF
        } else {
            d as i32
        }
    }

    #[inline]
    fn into_dist(self) -> Dist {
        if self >= Self::INF {
            INFINITY
        } else {
            self as Dist
        }
    }

    #[inline]
    fn add_capped(self, w: i32) -> i32 {
        // Both operands are below i32::MAX / 4, so the plain sum cannot wrap.
        (self + w).min(Self::INF)
    }

    type Key = u64;
    const KEY_MAX: u64 = u64::MAX;

    #[inline]
    fn pack(self, nb: u32) -> u64 {
        ((self as u64) << 32) | nb as u64
    }

    #[inline]
    fn key_value(key: u64) -> i32 {
        (key >> 32) as i32
    }

    #[inline]
    fn key_neighbor(key: u64) -> u32 {
        key as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn u64_cells_round_trip_the_dist_domain() {
        assert_eq!(<u64 as DistCell>::from_weight(7), 7);
        assert_eq!(<u64 as DistCell>::from_threshold(INFINITY + 5), INFINITY);
        assert_eq!(<u64 as DistCell>::INF.into_dist(), INFINITY);
        assert_eq!(<u64 as DistCell>::INF.add_capped(3), INFINITY);
        assert_eq!(5u64.add_capped(4), 9);
    }

    #[test]
    fn i32_cells_clamp_thresholds_and_saturate() {
        assert_eq!(<i32 as DistCell>::from_threshold(INFINITY), i32::MAX / 4);
        assert_eq!(<i32 as DistCell>::from_threshold(10), 10);
        assert_eq!(<i32 as DistCell>::INF.into_dist(), INFINITY);
        assert_eq!(<i32 as DistCell>::INF.add_capped(1), i32::MAX / 4);
        assert_eq!(3i32.add_capped(4), 7);
    }

    #[test]
    fn key_packing_orders_by_value_then_neighbor() {
        let a = 5i32.pack(2);
        let b = 5i32.pack(7);
        let c = 6i32.pack(0);
        assert!(a < b && b < c);
        assert_eq!(<i32 as DistCell>::key_value(b), 5);
        assert_eq!(<i32 as DistCell>::key_neighbor(b), 7);
        let k = 9u64.pack(3);
        assert_eq!(<u64 as DistCell>::key_value(k), 9);
        assert_eq!(<u64 as DistCell>::key_neighbor(k), 3);
    }

    #[test]
    fn fits_check_matches_sentinel() {
        assert!(fits_i32(1000, 100));
        assert!(!fits_i32(usize::MAX, u64::MAX));
        assert!(!fits_i32(2, (i32::MAX / 4) as u64));
    }
}
