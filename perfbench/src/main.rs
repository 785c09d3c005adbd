//! The repository benchmark: the whole pipeline an operator and a data
//! plane run, on one named workload per invocation.
//!
//! graph in hand → `build_routing_scheme_with` → `en_wire::serialize` →
//! file write → `MappedSnapshot::open` → `FlatScheme::from_bytes` →
//! `SchemeStore::publish_source` → routes forwarded through `QueryEngine`.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!           [--graph-seed <n>] [--build-seed <n>] [--n <vertices>]
//!           [--work-dir <dir>]
//! ```
//!
//! `--trace 0` prints the end-to-end metrics, measured with no recorder
//! installed. `--trace 1` installs an `en_obs::MetricsRegistry` and prints
//! the per-layer metrics: the program's own `build/*` spans, and the
//! benchmark's spans around each call into a layer. The last line of
//! standard output is the result object; the line before it records the
//! seeds and the host. `perfbench/README.md` says why each workload and
//! metric exists and which end-to-end metric each layer metric moves.

mod pipeline;
mod report;
mod serve;

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use en_graph::bfs::hop_diameter_estimate;
use en_graph::generators::{erdos_renyi_connected, random_geometric_connected, GeneratorConfig};
use en_graph::{NodeId, WeightedGraph};
use en_obs::MetricsRegistry;
use en_wire::{generate_pairs, PairWorkload, QueryEngine, SchemeStore};

use pipeline::Setup;
use report::{median, quantile, Info, Metrics};
use serve::{Sampler, StretchSet, Verdict};

/// The seed named for re-checking a claim on inputs nobody tuned against,
/// as `--seed` and as `--graph-seed`. Tuning the benchmark, or a change
/// measured with it, must not use it.
const HELD_OUT_SEED: u64 = 7777;
/// Pairs in the serving pool: 69,632 uniform pairs touch every part of
/// the 351 MB er10k-k2 snapshot, so passes cannot run from a warm cache.
/// The pool is an odd number of chunks, so every kind of pass in a round
/// rotates over all of them instead of always drawing the same ones.
const POOL: usize = 17 * serve::CHUNK;
/// The graph every workload is built on unless `--graph-seed` says
/// otherwise. The graph is part of the workload, like n and k: at n = 10⁴
/// two Erdős–Rényi draws give snapshots up to 20% apart, which would bury
/// a regression under seed-to-seed differences. `--seed` varies the
/// traffic instead.
const GRAPH_SEED: u64 = 1;
/// The construction seed every setup uses unless `--build-seed` says
/// otherwise; the sampled hierarchy alone moves the snapshot size by ±10%.
const BUILD_SEED: u64 = 42;
/// Seeds the checker's stretch sources. The stretch set is fixed per
/// graph, so `stretch_mean` and `stretch_max` move only when the scheme
/// does, never with the traffic seed.
const STRETCH_SEED: u64 = 0x57E7_C400;
/// Setups per run on the serving workloads; `setup_s` is their median.
const SETUPS: usize = 3;
/// Setups per run before the republish workload's read/write phase.
const REPUBLISH_SETUPS: usize = 2;
/// Fewest republished epochs that `republish_s` takes a median over.
const MIN_EPOCHS: usize = 3;
/// Share of the outside-timed build the program's `build/*` phase spans
/// must account for in a traced run; below it the phase numbers no longer
/// explain `en_routing.build_s`.
const MIN_PHASE_COVERAGE: f64 = 0.95;
/// The knob of the hot-route cache, which the benchmark keeps off.
const CACHE_VAR: &str = "EN_WIRE_CACHE_CAP";

#[derive(Debug, Clone, Copy)]
enum Family {
    ErdosRenyi,
    Geometric,
}

/// A named workload. Why each one exists is recorded in `BENCHMARK.json`
/// and `perfbench/README.md`.
#[derive(Debug)]
struct Workload {
    family: Family,
    k: usize,
    pairs: PairWorkload,
    /// One writer thread republishes fresh schemes while one reader serves.
    republish: bool,
}

fn workload(name: &str) -> Option<Workload> {
    let (family, k, pairs, republish) = match name {
        "er10k-k2-uniform" => (Family::ErdosRenyi, 2, PairWorkload::Uniform, false),
        "geo10k-k3-near" => (
            Family::Geometric,
            3,
            PairWorkload::NearFar {
                near_fraction: 1.0,
                walk_hops: 2,
            },
            false,
        ),
        "er10k-k3-republish" => (Family::ErdosRenyi, 3, PairWorkload::Uniform, true),
        _ => return None,
    };
    Some(Workload {
        family,
        k,
        pairs,
        republish,
    })
}

fn generate(family: Family, n: usize, seed: u64) -> WeightedGraph {
    let cfg = GeneratorConfig::new(n, seed).with_weights(1, 100);
    match family {
        // Average degree 8.
        Family::ErdosRenyi => erdos_renyi_connected(&cfg, (8.0 / n as f64).min(1.0)),
        // Radius √(12/n): hop diameter ≈ 45 at n = 10⁴.
        Family::Geometric => random_geometric_connected(&cfg, (12.0 / n as f64).sqrt().min(1.0)),
    }
}

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    graph_seed: Option<u64>,
    build_seed: Option<u64>,
    n: usize,
    work_dir: PathBuf,
}

impl Args {
    fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut args = Args {
            workload: String::new(),
            seed: 1,
            seconds: 10.0,
            trace: false,
            graph_seed: None,
            build_seed: None,
            n: 10_000,
            work_dir: PathBuf::from("perfbench/target/work"),
        };
        while let Some(flag) = argv.next() {
            let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let int = || {
                value
                    .parse::<u64>()
                    .map_err(|_| format!("{flag} takes a whole number, not {value:?}"))
            };
            match flag.as_str() {
                "--workload" => args.workload = value.clone(),
                "--seed" => args.seed = int()?,
                "--seconds" => args.seconds = int()? as f64,
                "--trace" => {
                    args.trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                    }
                }
                "--graph-seed" => args.graph_seed = Some(int()?),
                "--build-seed" => args.build_seed = Some(int()?),
                "--n" => args.n = int()? as usize,
                "--work-dir" => args.work_dir = PathBuf::from(&value),
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        if args.seconds < 1.0 {
            return Err("--seconds must be at least 1".to_string());
        }
        if args.n < 64 {
            return Err("--n must be at least 64".to_string());
        }
        Ok(args)
    }
}

pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The seeds of one run: the graph and construction seeds default to
/// [`GRAPH_SEED`] and [`BUILD_SEED`]; `--seed` is the only traffic seed,
/// and the pair seed is `splitmix64(seed)`.
#[derive(Debug, Clone, Copy)]
struct Seeds {
    graph: u64,
    build: u64,
    pairs: u64,
}

impl Seeds {
    fn from_args(args: &Args) -> Seeds {
        Seeds {
            graph: args.graph_seed.unwrap_or(GRAPH_SEED),
            build: args.build_seed.unwrap_or(BUILD_SEED),
            pairs: splitmix64(args.seed),
        }
    }

    /// The construction seed of republished epoch `epoch`.
    fn epoch_build(&self, epoch: usize) -> u64 {
        splitmix64(self.build ^ (epoch as u64).wrapping_mul(0x1000_0000_0001))
    }
}

/// The snapshot files of one run. They live in the work directory under a
/// per-process prefix and are removed when the run ends.
struct WorkDir {
    dir: PathBuf,
    prefix: String,
}

impl WorkDir {
    fn create(dir: &Path) -> Result<WorkDir, String> {
        std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        Ok(WorkDir {
            dir: dir.to_path_buf(),
            prefix: format!("snapshot-{}-", std::process::id()),
        })
    }

    fn file(&self, i: usize) -> PathBuf {
        self.dir.join(format!("{}{i}.bin", self.prefix))
    }

    /// Unlinks snapshot `i`. An epoch still mapping it keeps its pages.
    fn remove(&self, i: usize) {
        let _ = std::fs::remove_file(self.file(i));
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let Ok(entries) = std::fs::read_dir(&self.dir) else {
            return;
        };
        for entry in entries.flatten() {
            if entry
                .file_name()
                .to_string_lossy()
                .starts_with(&self.prefix)
            {
                let _ = std::fs::remove_file(entry.path());
            }
        }
    }
}

/// Counts and violations gathered by the correctness gate.
#[derive(Debug, Default)]
struct Gate {
    attempted: u64,
    failed: u64,
    violations: Vec<String>,
}

impl Gate {
    fn absorb(&mut self, v: Verdict) {
        self.attempted += v.attempted;
        self.failed += v.failed;
        self.violations.extend(v.violations);
    }

    fn absorb_sampler(&mut self, s: &Sampler) {
        self.attempted += s.attempted;
        self.failed += s.failed;
    }

    fn merge(&mut self, other: Gate) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.violations.extend(other.violations);
    }
}

/// Serves `engine` for `length`: a warm-up pass, then repeated rounds of
/// timed passes. Untraced, a round is a throughput pass and a latency
/// pass; traced, it is an untraced and a traced throughput pass and the
/// per-stage passes.
fn serve_segment(
    engine: &QueryEngine<'_>,
    pool: &[(NodeId, NodeId)],
    sampler: &mut Sampler,
    registry: Option<&Arc<MetricsRegistry>>,
    length: Duration,
) {
    if length.is_zero() {
        return;
    }
    sampler.warm_up(engine, pool);
    let deadline = Instant::now() + length;
    loop {
        sampler.batch_pass(engine, pool);
        match registry {
            None => sampler.latency_pass(engine, pool),
            Some(r) => {
                sampler.traced_batch_pass(engine, pool, r);
                sampler.stage_passes(engine, pool, r);
            }
        }
        if Instant::now() >= deadline {
            break;
        }
    }
}

/// Sets the flag when dropped, so the reader stops even if the writer
/// fails or panics.
struct SetOnDrop<'a>(&'a AtomicBool);

impl Drop for SetOnDrop<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::Release);
    }
}

/// The republish writer: rebuilds with a fresh construction seed per epoch
/// and publishes each into the live store until `deadline` (and at least
/// [`MIN_EPOCHS`] times), checking every epoch with the gate.
#[allow(clippy::too_many_arguments)]
fn republish(
    g: &WeightedGraph,
    k: usize,
    seeds: &Seeds,
    store: &SchemeStore,
    work: &WorkDir,
    first_file: usize,
    pairs: &[(NodeId, NodeId)],
    checker: &StretchSet,
    deadline: Instant,
) -> Result<(Vec<Setup>, Gate), String> {
    let mut epochs = Vec::new();
    let mut gate = Gate::default();
    while Instant::now() < deadline || epochs.len() < MIN_EPOCHS {
        let file = first_file + epochs.len();
        let seed = seeds.epoch_build(epochs.len() + 1);
        let (setup, _) = pipeline::run(g, k, seed, &work.file(file), Some(store))?;
        work.remove(file - 1);
        let epoch = store.current();
        let engine = QueryEngine::new(epoch.scheme(), g).map_err(|e| e.to_string())?;
        let verdict = serve::verify(&engine, g, pairs, checker, setup.facts.stretch_bound);
        gate.absorb(verdict);
        epochs.push(setup);
    }
    Ok((epochs, gate))
}

/// The republish reader: serves the store's current epoch until `done`,
/// re-pinning the epoch before every round.
fn read_until(
    done: &AtomicBool,
    store: &SchemeStore,
    g: &WeightedGraph,
    pool: &[(NodeId, NodeId)],
    sampler: &mut Sampler,
) -> Result<(), String> {
    while !done.load(Ordering::Acquire) {
        let epoch = store.current();
        let engine = QueryEngine::new(epoch.scheme(), g).map_err(|e| e.to_string())?;
        sampler.batch_pass(&engine, pool);
        sampler.latency_pass(&engine, pool);
    }
    Ok(())
}

struct Outcome {
    info: Info,
    metrics: Metrics,
    gate: Gate,
}

fn run(args: &Args) -> Result<Outcome, String> {
    let wl = workload(&args.workload).ok_or_else(|| {
        format!(
            "unknown workload {:?}; expected er10k-k2-uniform, geo10k-k3-near or er10k-k3-republish",
            args.workload
        )
    })?;
    let nproc = std::thread::available_parallelism().map_or(1, |p| p.get());
    let threads = if wl.republish { 2 } else { 1 };
    if threads > nproc {
        return Err(format!(
            "{} runs {threads} threads; refusing to start them on a host with {nproc}",
            args.workload
        ));
    }
    // The hot-route cache must stay off: the engine reads this variable
    // once, on first use, so it is cleared before any engine exists.
    let cache_var_was_set = std::env::var_os(CACHE_VAR).is_some();
    std::env::remove_var(CACHE_VAR);

    let seeds = Seeds::from_args(args);
    let g = generate(wl.family, args.n, seeds.graph);
    let pool = generate_pairs(&g, &wl.pairs, POOL, seeds.pairs);
    let near_hops = match wl.pairs {
        PairWorkload::NearFar { walk_hops, .. } => Some(walk_hops),
        _ => None,
    };
    let stretch_sources = generate_pairs(&g, &wl.pairs, serve::CHUNK, STRETCH_SEED);
    let checker = StretchSet::new(&g, &stretch_sources, near_hops, STRETCH_SEED);
    let registry = args.trace.then(|| Arc::new(MetricsRegistry::new()));
    let work = WorkDir::create(&args.work_dir)?;

    let mut gate = Gate::default();
    let mut sampler = Sampler::default();
    let n_setups = if wl.republish {
        REPUBLISH_SETUPS
    } else {
        SETUPS
    };
    // The serving workloads spread `--seconds` over the segments after
    // their setups. The republish workload spends it in its read/write
    // phase, and serves segments only when traced, for the stage metrics.
    let segment = Duration::from_secs_f64(match (wl.republish, args.trace) {
        (false, _) => args.seconds / n_setups as f64,
        (true, false) => 0.0,
        (true, true) => args.seconds / (2 * n_setups) as f64,
    });

    let mut store: Option<SchemeStore> = None;
    let mut setups: Vec<Setup> = Vec::new();
    let mut traced_builds: Vec<f64> = Vec::new();
    let mut stretch = (0.0, 0.0);
    for s in 0..n_setups {
        // The first setup of a traced run stays untraced, so that the
        // fingerprint check compares traced against untraced bytes.
        let traced = registry.as_ref().filter(|_| s > 0);
        let (setup, created) = {
            let _guard = traced.map(|r| en_obs::install(r.clone()));
            pipeline::run(&g, wl.k, seeds.build, &work.file(s), store.as_ref())?
        };
        if traced.is_some() {
            traced_builds.push(setup.stages.build);
        }
        if s > 0 {
            work.remove(s - 1);
            if setup.fingerprint != setups[0].fingerprint {
                gate.violations.push(format!(
                    "setup {s} wrote snapshot {:016x}, setup 0 wrote {:016x}",
                    setup.fingerprint, setups[0].fingerprint
                ));
            }
        }
        store = store.or(created);
        let store = store.as_ref().expect("the first setup creates the store");
        let epoch = store.current();
        let engine = QueryEngine::new(epoch.scheme(), &g).map_err(|e| e.to_string())?;
        if s == 0 {
            let verdict = serve::verify(&engine, &g, &pool, &checker, setup.facts.stretch_bound);
            stretch = (verdict.stretch_mean, verdict.stretch_max);
            gate.absorb(verdict);
        }
        setups.push(setup);
        serve_segment(&engine, &pool, &mut sampler, registry.as_ref(), segment);
    }
    let store = store.expect("at least one setup ran");

    let mut reader = Sampler::default();
    let mut epochs: Vec<Setup> = Vec::new();
    if wl.republish {
        let _guard = registry.as_ref().map(|r| en_obs::install(r.clone()));
        let done = AtomicBool::new(false);
        let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
        {
            let epoch = store.current();
            let engine = QueryEngine::new(epoch.scheme(), &g).map_err(|e| e.to_string())?;
            reader.warm_up(&engine, &pool);
        }
        let (written, read) = std::thread::scope(|scope| {
            let writer = scope.spawn(|| {
                let _stop_reader = SetOnDrop(&done);
                republish(
                    &g,
                    wl.k,
                    &seeds,
                    &store,
                    &work,
                    n_setups,
                    &pool[..serve::CHUNK],
                    &checker,
                    deadline,
                )
            });
            let read = read_until(&done, &store, &g, &pool, &mut reader);
            (writer.join().expect("the writer thread panicked"), read)
        });
        read?;
        let (written, writer_gate) = written?;
        gate.merge(writer_gate);
        if registry.is_some() {
            traced_builds.extend(written.iter().map(|e| e.stages.build));
        }
        epochs = written;
    }
    gate.absorb_sampler(&sampler);
    gate.absorb_sampler(&reader);
    let store_stats = store.stats();
    if store_stats.rejected != 0 {
        gate.violations
            .push(format!("{} publishes were rejected", store_stats.rejected));
    }

    let first = setups[0];
    let mut metrics = Metrics::default();
    match &registry {
        None => {
            let client = if wl.republish {
                &mut reader
            } else {
                &mut sampler
            };
            let totals: Vec<f64> = setups.iter().map(|s| s.stages.total()).collect();
            let republished: Vec<f64> = if wl.republish {
                epochs.iter().map(|e| e.stages.total()).collect()
            } else {
                totals[1..].to_vec()
            };
            metrics.push("setup_s", median(&totals), "s");
            metrics.push("routes_per_s", median(&client.batch_rates), "1/s");
            metrics.push(
                "route_p50_us",
                quantile(&mut client.latencies_ns, 0.5) as f64 / 1e3,
                "us",
            );
            metrics.push(
                "route_p99_us",
                quantile(&mut client.latencies_ns, 0.99) as f64 / 1e3,
                "us",
            );
            metrics.push("stretch_mean", stretch.0, "ratio");
            metrics.push("stretch_max", stretch.1, "ratio");
            metrics.push("snapshot_mb", first.bytes as f64 / 1e6, "MB");
            let rss = report::peak_rss_bytes().ok_or("VmHWM is not readable")?;
            metrics.push("peak_rss_mb", rss as f64 / 1e6, "MB");
            metrics.push("republish_s", median(&republished), "s");
        }
        Some(registry) => {
            let client = if wl.republish { &reader } else { &sampler };
            per_layer(
                &mut metrics,
                registry,
                &traced_builds,
                &first,
                &sampler,
                client,
                store_stats.published,
                store_stats.rejected,
                &mut gate.violations,
            )?;
            let attempted = gate.attempted.max(1) as f64;
            metrics.push("route_fail_frac", gate.failed as f64 / attempted, "frac");
        }
    }

    let mut info = Info::default();
    info.text("workload", &args.workload);
    info.num("n", g.num_nodes());
    info.num("m", g.num_edges());
    info.num("k", wl.k);
    info.num("hop_diameter", hop_diameter_estimate(&g));
    info.num("seed", args.seed);
    info.num("graph_seed", seeds.graph);
    info.num("build_seed", seeds.build);
    info.num("pair_seed", seeds.pairs);
    info.num("held_out_seed", HELD_OUT_SEED);
    info.num("trace", args.trace as u8);
    info.num("nproc", nproc);
    info.num("threads_used", threads);
    info.text("cpu_model", &report::cpu_model());
    info.text("l3_cache", &report::l3_size());
    info.text("route_cache", "off");
    info.num("cache_var_removed", cache_var_was_set);
    info.text("fingerprint", &format!("{:016x}", first.fingerprint));
    info.num("snapshot_mapped", first.mapped);
    info.num("setups", setups.len());
    info.num("epochs_republished", epochs.len());
    let client = if wl.republish { &reader } else { &sampler };
    info.num("latency_samples", client.latencies_ns.len());
    info.num("batch_passes", client.batch_rates.len());
    let rates = &client.batch_rates;
    info.num("routes_per_s_q1", report::quantile_f64(rates, 0.25));
    info.num("routes_per_s_q3", report::quantile_f64(rates, 0.75));
    info.num("stretch_pairs", checker.pairs.len());
    info.num("stretch_sources", checker.sources);
    info.num("stretch_bound", first.facts.stretch_bound);

    for name in metrics.unmeasured() {
        gate.violations
            .push(format!("timed metric {name} reads 0 or is not finite"));
    }
    Ok(Outcome {
        info,
        metrics,
        gate,
    })
}

/// The per-layer metrics of a traced run.
#[allow(clippy::too_many_arguments)]
fn per_layer(
    metrics: &mut Metrics,
    registry: &MetricsRegistry,
    traced_builds: &[f64],
    first: &Setup,
    segments: &Sampler,
    client: &Sampler,
    published: u64,
    rejected: u64,
    violations: &mut Vec<String>,
) -> Result<(), String> {
    let spans = report::span_totals(registry)?;
    let total = |path: &str| spans.get(path).map_or(0, |&(_, t)| t);
    let mean_ns = |path: &str| {
        spans
            .get(path)
            .map_or(0.0, |&(c, t)| t as f64 / c.max(1) as f64)
    };
    let builds = spans.get("build").map_or(0, |&(c, _)| c);
    if builds as usize != traced_builds.len() {
        return Err(format!(
            "{builds} build spans for {} traced builds",
            traced_builds.len()
        ));
    }
    let per_build_ms = |ns: u64| ns as f64 / builds as f64 / 1e6;

    metrics.push("en_routing.build_s", median(traced_builds), "s");
    let mut phase_ns = 0;
    for (name, phase) in [
        ("en_routing.hierarchy_ms", "hierarchy"),
        ("en_routing.preprocess_ms", "preprocess"),
        ("en_routing.pivots_ms", "pivots"),
        ("en_routing.clusters_small_ms", "clusters_small"),
        ("en_routing.clusters_middle_ms", "clusters_middle"),
        ("en_routing.clusters_large_ms", "clusters_large"),
        ("en_routing.forest_finish_ms", "forest_finish"),
        ("en_routing.assemble_ms", "assemble"),
        ("en_routing.sketches_ms", "sketches"),
    ] {
        let ns = total(&format!("build/{phase}"));
        phase_ns += ns;
        metrics.push(name, per_build_ms(ns), "ms");
    }
    for (name, leaf) in [
        ("en_congest_algos.theorem1_kernel_ms", "theorem1_kernel"),
        ("en_graph.restricted_kernel_ms", "restricted_kernel"),
    ] {
        let suffix = format!("/{leaf}");
        let ns: u64 = spans
            .iter()
            .filter(|(path, _)| path.starts_with("build/") && path.ends_with(&suffix))
            .map(|(_, &(_, t))| t)
            .sum();
        metrics.push(name, per_build_ms(ns), "ms");
    }
    let outside_s: f64 = traced_builds.iter().sum();
    let coverage = phase_ns as f64 / 1e9 / outside_s;
    if coverage < MIN_PHASE_COVERAGE {
        violations.push(format!(
            "the build/* phase spans cover {coverage:.3} of the outside-timed builds"
        ));
    }
    metrics.push("en_routing.phase_coverage", coverage, "ratio");
    let facts = &first.facts;
    metrics.push(
        "en_routing.sources_total",
        facts.sources_total as f64,
        "count",
    );
    metrics.push(
        "en_routing.members_total",
        facts.members_total as f64,
        "count",
    );
    metrics.push(
        "en_routing.max_table_words",
        facts.max_table_words as f64,
        "words",
    );
    metrics.push(
        "en_routing.max_label_words",
        facts.max_label_words as f64,
        "words",
    );
    metrics.push(
        "en_congest.charged_rounds",
        facts.charged_rounds as f64,
        "rounds",
    );

    metrics.push("en_wire.serialize_ms", mean_ns("serialize") / 1e6, "ms");
    metrics.push("io.write_ms", mean_ns("write") / 1e6, "ms");
    metrics.push("en_wire.mmap_open_us", mean_ns("mmap_open") / 1e3, "us");
    metrics.push("en_wire.validate_ms", mean_ns("validate") / 1e6, "ms");
    let validated = registry.counter_value("bench.validated_bytes") as f64;
    metrics.push(
        "en_wire.validate_gb_per_s",
        validated / total("validate").max(1) as f64,
        "GB/s",
    );
    metrics.push("en_wire.publish_ms", mean_ns("publish") / 1e6, "ms");
    metrics.push("en_wire.epochs_published", published as f64, "count");
    metrics.push("en_wire.publish_rejected", rejected as f64, "count");
    metrics.push("en_wire.snapshot_bytes", first.bytes as f64, "bytes");

    let find_tree_ns = total("find_tree") as f64 / segments.find_tree_calls.max(1) as f64;
    let route_ns = total("route_with_exact") as f64 / segments.route_calls.max(1) as f64;
    let hops = segments.route_hops as f64 / segments.route_calls.max(1) as f64;
    // Both sides of the overhead read cold chunks, and neither records
    // per route: the batch pass runs with no recorder installed, and
    // `route_with_exact` records nothing of its own.
    let batch_ns = 1e9 / median(&segments.batch_rates);
    metrics.push("en_wire.find_tree_ns", find_tree_ns, "ns");
    metrics.push("en_wire.route_ns", route_ns, "ns");
    metrics.push("en_wire.hop_loop_ns", route_ns - find_tree_ns, "ns");
    metrics.push("en_wire.hops_per_route", hops, "hops");
    metrics.push("en_wire.ns_per_hop", (route_ns - find_tree_ns) / hops, "ns");
    metrics.push("en_wire.batch_overhead", batch_ns / route_ns, "ratio");
    metrics.push(
        "en_wire.reader_stall_max_ms",
        client.max_batch_gap.as_secs_f64() * 1e3,
        "ms",
    );
    metrics.push(
        "en_obs.traced_overhead",
        median(&segments.batch_rates) / median(&segments.traced_batch_rates),
        "ratio",
    );
    Ok(())
}

fn main() {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok(outcome) => {
            let gate = &outcome.gate;
            for v in &gate.violations {
                eprintln!("perfbench: correctness violation: {v}");
            }
            let correct = gate.violations.is_empty();
            println!("{}", outcome.info.line());
            println!(
                "{}",
                outcome
                    .metrics
                    .result_line(correct, gate.attempted.max(1), gate.failed)
            );
            std::process::exit(if correct { 0 } else { 1 });
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    }
}
