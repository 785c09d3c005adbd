//! The operator's pipeline, one stage per layer: build → serialize → write
//! → mmap open → validate → publish.
//!
//! Every stage is timed from outside with [`Instant`], its input and result
//! pass through [`black_box`], and every stage except the build runs inside
//! a benchmark span named after it. The build carries no benchmark span so
//! that the program's own `build/*` spans stay at the root of the span tree,
//! where the traced run reads them.

use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use en_graph::{BuildOptions, WeightedGraph};
use en_routing::construction::{build_routing_scheme_with, ConstructionConfig};
use en_wire::{FlatScheme, MappedSnapshot, SchemeStore, SnapshotSource};

/// Seconds spent in each stage of one setup.
#[derive(Debug, Clone, Copy, Default)]
pub struct Stages {
    pub build: f64,
    pub serialize: f64,
    pub write: f64,
    pub open: f64,
    pub validate: f64,
    pub publish: f64,
}

impl Stages {
    /// Graph in hand to first route servable.
    pub fn total(&self) -> f64 {
        self.build + self.serialize + self.write + self.open + self.validate + self.publish
    }
}

/// Facts about the built scheme that the report and the gate need after
/// the scheme itself has been dropped.
#[derive(Debug, Clone, Copy)]
pub struct Facts {
    pub stretch_bound: f64,
    pub charged_rounds: u64,
    pub sources_total: u64,
    pub members_total: u64,
    pub max_table_words: u64,
    pub max_label_words: u64,
}

/// One completed setup.
#[derive(Debug, Clone, Copy)]
pub struct Setup {
    pub stages: Stages,
    pub bytes: usize,
    pub fingerprint: u64,
    pub mapped: bool,
    pub facts: Facts,
}

/// Times `f` from outside and, when a recorder is installed, inside a
/// benchmark span called `name`.
fn stage<R>(name: &'static str, f: impl FnOnce() -> R) -> (R, f64) {
    let start = Instant::now();
    let out = {
        let _span = en_obs::span(name);
        black_box(f())
    };
    (out, start.elapsed().as_secs_f64())
}

/// Runs the whole pipeline once on one thread. The snapshot goes to
/// `path`; with `store` given it is published into that live store,
/// otherwise it becomes epoch 0 of a new store, which is returned.
pub fn run(
    g: &WeightedGraph,
    k: usize,
    seed: u64,
    path: &Path,
    store: Option<&SchemeStore>,
) -> Result<(Setup, Option<SchemeStore>), String> {
    let mut stages = Stages::default();
    let config = ConstructionConfig::new(k, seed);

    let start = Instant::now();
    let built = black_box(build_routing_scheme_with(
        black_box(g),
        &config,
        &BuildOptions::new(1),
    ))
    .map_err(|e| format!("build failed: {e}"))?;
    stages.build = start.elapsed().as_secs_f64();

    let (bytes, t) = stage("serialize", || en_wire::serialize(black_box(&built.scheme)));
    stages.serialize = t;
    let (written, t) = stage("write", || std::fs::write(path, black_box(&bytes)));
    stages.write = t;
    written.map_err(|e| format!("writing {}: {e}", path.display()))?;

    let stretch_bound = built.params.stretch_bound();
    let charged_rounds = built.ledger.total_rounds() as u64;
    let sources_total = built.build_stats.total_sources() as u64;
    let members_total = built.build_stats.total_members() as u64;
    let fingerprint = fingerprint(&bytes);
    let len = bytes.len();
    drop(bytes);
    drop(built);

    let (opened, t) = stage("mmap_open", || MappedSnapshot::open(black_box(path)));
    stages.open = t;
    let mapped = opened.map_err(|e| format!("opening {}: {e}", path.display()))?;
    let (flat, t) = stage("validate", || {
        FlatScheme::from_bytes(black_box(mapped.bytes()))
    });
    stages.validate = t;
    let flat = flat.map_err(|e| format!("snapshot does not validate: {e}"))?;
    en_obs::counter_add("bench.validated_bytes", len as u64);
    if flat.n() != g.num_nodes() || flat.k() != k {
        return Err(format!(
            "snapshot claims n={} k={}, built n={} k={k}",
            flat.n(),
            flat.k(),
            g.num_nodes()
        ));
    }
    let facts = Facts {
        stretch_bound,
        charged_rounds,
        sources_total,
        members_total,
        max_table_words: flat.max_table_words() as u64,
        max_label_words: flat.max_label_words() as u64,
    };
    let is_mapped = mapped.is_mapped();

    let source = SnapshotSource::from(mapped);
    let (published, t) = stage("publish", || match store {
        Some(store) => store.publish_source(source).map(|_| None),
        None => SchemeStore::new_source(source).map(Some),
    });
    stages.publish = t;
    let new_store = published.map_err(|e| format!("publish rejected: {e}"))?;

    let setup = Setup {
        stages,
        bytes: len,
        fingerprint,
        mapped: is_mapped,
        facts,
    };
    Ok((setup, new_store))
}

/// Word-wise 64-bit FNV-1a over the snapshot bytes, so that two runs can show they
/// served the same scheme.
fn fingerprint(bytes: &[u8]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut chunks = bytes.chunks_exact(8);
    let mut h = OFFSET;
    for c in &mut chunks {
        h ^= u64::from_le_bytes(c.try_into().expect("chunks_exact yields 8 bytes"));
        h = h.wrapping_mul(PRIME);
    }
    for &b in chunks.remainder() {
        h ^= u64::from(b);
        h = h.wrapping_mul(PRIME);
    }
    h ^ bytes.len() as u64
}
