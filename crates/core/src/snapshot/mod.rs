//! The routing scheme's one representation: the flat, checksummed v3
//! snapshot.
//!
//! Everything the paper's scheme stores per vertex — the routing table (one
//! tree table per cluster tree containing the vertex, plus the \[TZ01\]
//! `4k−5` own-cluster labels at level-0 centres) and the label (one pivot
//! entry per level, with the vertex's tree label in that pivot's tree) —
//! lives in one relocatable little-endian buffer of CSR-style columns and
//! pooled variable-length records ([`format`](mod@format) has the layout).
//!
//! * The writer is part of [`RoutingScheme::assemble`]: each cluster's
//!   table and label records are encoded as soon as its tree-routing scheme
//!   is built, and that scheme is dropped right after. There is no owned
//!   table/label copy of the scheme to serialize later.
//! * [`FlatScheme::from_bytes`] validates a buffer **once** — header,
//!   per-section checksums ([`checksum`]), cluster/CSR/record structure and
//!   the rank-index bijection — and then serves every access zero-copy
//!   through `Copy` slice-plus-offset views. [`RoutingScheme`] owns (or
//!   maps) the bytes and can only be built through that validation; the
//!   O(header) re-open it hands its views out with is private to this
//!   module, so no caller can hold a [`FlatScheme`] that skipped it.
//! * Corrupt bytes are a structured [`WireError`], never a panic or a wrong
//!   answer: they are rejected before they are served.

pub mod checksum;
mod error;
mod flat;
pub mod format;
mod write;

pub use error::WireError;
pub use flat::{
    FlatCluster, FlatLocalLabel, FlatPivotEntry, FlatScheme, FlatTreeLabel, FlatTreeTable,
    FlatU64s, SectionSpan, SnapshotManifest, ValidateStats, PARALLEL_VALIDATE_MIN_BYTES,
};
pub(crate) use write::encode;

/// The assembled routing scheme: a validated v3 snapshot held in any byte
/// storage `B` (an owned buffer by default; `en_wire` serves mapped files
/// through the same type). The routing API lives in [`crate::scheme`].
///
/// A `RoutingScheme` can only be built through the full
/// [`FlatScheme::from_bytes`] validation — by
/// [`RoutingScheme::assemble`], which validates the bytes it wrote, or by
/// [`Self::from_bytes`] — so every view it hands out ([`Self::flat`])
/// serves bytes that passed it. `B::as_ref` must return the same bytes on
/// every call, as every buffer and mapping does.
#[derive(Clone)]
pub struct RoutingScheme<B: AsRef<[u8]> = Vec<u8>> {
    bytes: B,
}

impl<B: AsRef<[u8]>> RoutingScheme<B> {
    /// Validates `bytes` in full ([`FlatScheme::from_bytes`]) and takes
    /// ownership of them.
    ///
    /// # Errors
    ///
    /// The first inconsistency the validation finds; the bytes are dropped.
    pub fn from_bytes(bytes: B) -> Result<Self, WireError> {
        Self::validated(bytes, 0)
    }

    /// [`Self::from_bytes`] with the checksum walk's thread count pinned
    /// (see [`FlatScheme::from_bytes_accounted`]).
    pub(crate) fn validated(bytes: B, threads: usize) -> Result<Self, WireError> {
        FlatScheme::from_bytes_accounted(bytes.as_ref(), threads)?;
        Ok(RoutingScheme { bytes })
    }

    /// The snapshot bytes.
    pub fn bytes(&self) -> &[u8] {
        self.bytes.as_ref()
    }

    /// The storage holding the bytes.
    pub fn source(&self) -> &B {
        &self.bytes
    }

    /// The zero-copy view every query reads: an O(header) re-open of the
    /// already validated bytes.
    pub fn flat(&self) -> FlatScheme<'_> {
        FlatScheme::reopen_validated(self.bytes.as_ref())
            .expect("a RoutingScheme holds validated bytes")
    }
}

impl<B: AsRef<[u8]>> std::fmt::Debug for RoutingScheme<B> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let flat = self.flat();
        f.debug_struct("RoutingScheme")
            .field("n", &flat.n())
            .field("k", &flat.k())
            .field("clusters", &flat.num_clusters())
            .field("snapshot_bytes", &flat.snapshot_bytes())
            .finish()
    }
}
