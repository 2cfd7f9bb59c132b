//! Offline stand-in for the `criterion` benchmark harness.
//!
//! Implements the subset of the criterion 0.5 API used by this workspace's
//! benches (`criterion_group!` / `criterion_main!`, `Criterion::bench_function`,
//! benchmark groups with `bench_with_input` and an element `Throughput`, and
//! `black_box`) on top of a plain wall-clock measurement loop:
//!
//! 1. warm up the closure for a fixed wall-clock budget,
//! 2. pick an iteration count that makes one measurement batch take roughly a
//!    millisecond,
//! 3. run `sample_size` batches and report the median ns/iteration.
//!
//! Two environment variables adjust behaviour:
//!
//! * `BENCH_QUICK=1` shrinks the measurement budget (used by CI smoke runs);
//! * `BENCH_JSON=<path>` writes one JSON line per benchmark, which is how the
//!   committed `BENCH_*.json` baselines are produced.  The process's *first*
//!   write to a given path truncates it — a regenerated baseline replaces the
//!   stale file instead of silently appending to it — and every later write
//!   of the same process appends, so one bench binary's benchmarks accumulate
//!   into one file.  (Separate bench binaries are separate processes: point
//!   each at its own baseline file.)  A relative path is
//!   resolved against the **workspace root** (the nearest ancestor of the
//!   running package's manifest directory whose `Cargo.toml` declares
//!   `[workspace]`), so `BENCH_JSON=BENCH_foo.json cargo bench -p
//!   exsample-bench` writes next to the committed baselines no matter which
//!   directory cargo runs the bench binary from.  Absolute paths are used
//!   verbatim.

#![deny(unsafe_code)]

pub use std::hint::black_box;

use std::collections::HashSet;
use std::fmt::Display;
use std::fs::OpenOptions;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Resolve a `BENCH_JSON` value: absolute paths pass through, relative paths
/// land in the workspace root so the committed `BENCH_*.json` baselines can
/// be regenerated without worrying about which directory cargo runs the
/// bench binary from (cargo sets the bench process's working directory — and
/// `CARGO_MANIFEST_DIR` — to the *package*, not the workspace).
fn bench_json_path(raw: &str) -> PathBuf {
    let path = Path::new(raw);
    if path.is_absolute() {
        return path.to_path_buf();
    }
    match workspace_root() {
        Some(root) => root.join(path),
        None => path.to_path_buf(),
    }
}

/// The `BENCH_JSON` paths this process has already truncated.  The first
/// report written to a path replaces whatever stale baseline was there (the
/// historical append-only behaviour quietly produced files mixing old and new
/// runs); every later report of the same process appends.
fn truncated_paths() -> &'static Mutex<HashSet<PathBuf>> {
    static TRUNCATED: OnceLock<Mutex<HashSet<PathBuf>>> = OnceLock::new();
    TRUNCATED.get_or_init(|| Mutex::new(HashSet::new()))
}

/// The nearest ancestor of the running package's manifest directory (falling
/// back to the current directory) whose `Cargo.toml` declares a
/// `[workspace]` section.
fn workspace_root() -> Option<PathBuf> {
    let mut dir = std::env::var_os("CARGO_MANIFEST_DIR")
        .map(PathBuf::from)
        .or_else(|| std::env::current_dir().ok())?;
    loop {
        if let Ok(manifest) = std::fs::read_to_string(dir.join("Cargo.toml")) {
            if manifest.contains("[workspace]") {
                return Some(dir);
            }
        }
        if !dir.pop() {
            return None;
        }
    }
}

/// Measurement configuration shared by all benchmarks of a binary.
pub struct Criterion {
    sample_size: usize,
    warmup: Duration,
    measure_target: Duration,
}

impl Default for Criterion {
    fn default() -> Self {
        let quick = std::env::var("BENCH_QUICK").is_ok_and(|v| v == "1");
        Criterion {
            sample_size: if quick { 10 } else { 30 },
            warmup: if quick {
                Duration::from_millis(20)
            } else {
                Duration::from_millis(150)
            },
            measure_target: if quick {
                Duration::from_millis(1)
            } else {
                Duration::from_millis(4)
            },
        }
    }
}

impl Criterion {
    /// Benchmark a closure under `name`.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, name: &str, mut f: F) -> &mut Self {
        let mut bencher = Bencher {
            warmup: self.warmup,
            measure_target: self.measure_target,
            sample_size: self.sample_size,
            elements: None,
            result: None,
        };
        f(&mut bencher);
        bencher.report(name);
        self
    }

    /// Start a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: &str) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            criterion: self,
            name: name.to_string(),
            sample_size: None,
            elements: None,
        }
    }
}

/// How much work one iteration does, for per-element reporting.
pub enum Throughput {
    /// Each iteration processes this many elements.
    Elements(u64),
}

/// A group of benchmarks sharing a name prefix, a sample-size override and
/// a throughput.
pub struct BenchmarkGroup<'c> {
    criterion: &'c mut Criterion,
    name: String,
    sample_size: Option<usize>,
    elements: Option<u64>,
}

impl BenchmarkGroup<'_> {
    /// Override the number of measurement batches for this group.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = Some(n.max(2));
        self
    }

    /// Report this group's benchmarks per element as well as per iteration.
    pub fn throughput(&mut self, throughput: Throughput) -> &mut Self {
        let Throughput::Elements(n) = throughput;
        self.elements = Some(n.max(1));
        self
    }

    fn bencher(&self) -> Bencher {
        Bencher {
            warmup: self.criterion.warmup,
            measure_target: self.criterion.measure_target,
            sample_size: self.sample_size.unwrap_or(self.criterion.sample_size),
            elements: self.elements,
            result: None,
        }
    }

    /// Benchmark a closure under `group/name`.
    pub fn bench_function<F: FnMut(&mut Bencher)>(
        &mut self,
        name: impl Display,
        mut f: F,
    ) -> &mut Self {
        let full = format!("{}/{}", self.name, name);
        let mut bencher = self.bencher();
        f(&mut bencher);
        bencher.report(&full);
        self
    }

    /// Benchmark a closure parameterised by `input` under `group/id`.
    pub fn bench_with_input<I, F>(&mut self, id: BenchmarkId, input: &I, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        let full = format!("{}/{}", self.name, id.0);
        let mut bencher = self.bencher();
        f(&mut bencher, input);
        bencher.report(&full);
        self
    }

    /// Finish the group (no-op beyond matching the upstream API).
    pub fn finish(self) {}
}

/// Identifier for a parameterised benchmark.
pub struct BenchmarkId(String);

impl BenchmarkId {
    /// Identifier rendered from the parameter value alone.
    pub fn from_parameter<P: Display>(parameter: P) -> Self {
        BenchmarkId(parameter.to_string())
    }

    /// Identifier with an explicit function name and parameter.
    pub fn new<P: Display>(function: &str, parameter: P) -> Self {
        BenchmarkId(format!("{function}/{parameter}"))
    }
}

/// Passed to the benchmark closure; `iter` runs the measurement loop.
pub struct Bencher {
    warmup: Duration,
    measure_target: Duration,
    sample_size: usize,
    /// Elements per iteration, when the group declared a throughput.
    elements: Option<u64>,
    result: Option<Measurement>,
}

struct Measurement {
    median_ns: f64,
    iters_per_batch: u64,
    batches: usize,
}

impl Bencher {
    /// Measure `routine`, recording the median batch time.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut routine: F) {
        // Warm-up: also estimates the per-iteration cost.
        let warm_start = Instant::now();
        let mut warm_iters = 0u64;
        while warm_start.elapsed() < self.warmup {
            black_box(routine());
            warm_iters += 1;
        }
        let per_iter = warm_start.elapsed().as_secs_f64() / warm_iters.max(1) as f64;
        let iters_per_batch =
            ((self.measure_target.as_secs_f64() / per_iter.max(1e-9)) as u64).clamp(1, 1 << 24);

        let mut samples = Vec::with_capacity(self.sample_size);
        for _ in 0..self.sample_size {
            let start = Instant::now();
            for _ in 0..iters_per_batch {
                black_box(routine());
            }
            samples.push(start.elapsed().as_secs_f64() / iters_per_batch as f64);
        }
        samples.sort_by(|a, b| a.total_cmp(b));
        let median_ns = samples[samples.len() / 2] * 1e9;
        self.result = Some(Measurement {
            median_ns,
            iters_per_batch,
            batches: self.sample_size,
        });
    }

    fn report(self, name: &str) {
        let Some(m) = self.result else {
            println!("{name:<56} (no measurement: Bencher::iter never called)");
            return;
        };
        let per_sec = 1e9 / m.median_ns;
        let per_element = self.elements.map(|n| m.median_ns / n as f64);
        let element_note = per_element.map_or(String::new(), |ns| format!("  {ns:.1} ns/elem"));
        println!(
            "{name:<56} {:>12.1} ns/iter {:>16.0} iter/s  ({} x {} iters){element_note}",
            m.median_ns, per_sec, m.batches, m.iters_per_batch
        );
        if let Ok(path) = std::env::var("BENCH_JSON") {
            let element_field =
                per_element.map_or(String::new(), |ns| format!(",\"ns_per_element\":{ns:.2}"));
            let line = format!(
                "{{\"name\":\"{}\",\"median_ns\":{:.2},\"iters_per_sec\":{:.1},\"batches\":{},\"iters_per_batch\":{}{}}}\n",
                name, m.median_ns, per_sec, m.batches, m.iters_per_batch, element_field
            );
            let path = bench_json_path(&path);
            // Held until the line is written: a report that decided to
            // truncate must not open the file after another has appended.
            let mut truncated = truncated_paths().lock().unwrap();
            let first_write = truncated.insert(path.clone());
            let mut options = OpenOptions::new();
            options.create(true);
            if first_write {
                options.write(true).truncate(true);
            } else {
                options.append(true);
            }
            let _ = options
                .open(&path)
                .and_then(|mut f| f.write_all(line.as_bytes()));
        }
    }
}

/// Declare a benchmark group function, mirroring criterion's macro.
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        fn $group() {
            let mut criterion = $crate::Criterion::default();
            $( $target(&mut criterion); )+
        }
    };
}

/// Declare the benchmark binary's `main`, mirroring criterion's macro.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measures_a_trivial_closure() {
        std::env::set_var("BENCH_QUICK", "1");
        let mut c = Criterion::default();
        let mut x = 0u64;
        c.bench_function("trivial", |b| b.iter(|| x = x.wrapping_add(1)));
        assert!(x > 0);
    }

    #[test]
    fn relative_bench_json_paths_resolve_to_the_workspace_root() {
        // The shim's own CARGO_MANIFEST_DIR is shims/criterion; the workspace
        // root is two levels up and declares [workspace].
        let root = workspace_root().expect("the shim lives inside a workspace");
        assert!(root.join("Cargo.toml").exists());
        assert!(
            std::fs::read_to_string(root.join("Cargo.toml"))
                .unwrap()
                .contains("[workspace]"),
            "workspace_root found a non-workspace manifest at {root:?}"
        );
        assert_eq!(bench_json_path("BENCH_x.json"), root.join("BENCH_x.json"));
        assert_eq!(
            bench_json_path("sub/BENCH_x.json"),
            root.join("sub/BENCH_x.json")
        );
        // Absolute paths pass through untouched.
        let absolute = root.join("BENCH_abs.json");
        assert_eq!(bench_json_path(absolute.to_str().unwrap()), absolute);
    }

    #[test]
    fn bench_json_truncates_the_stale_baseline_once_then_appends() {
        // A stale baseline from an earlier run must be replaced by the
        // process's first write, while writes after the first accumulate.
        // Uses an absolute path (passes through `bench_json_path` untouched)
        // unique to this process so parallel test runs cannot collide.
        let path =
            std::env::temp_dir().join(format!("BENCH_shim_truncate_{}.json", std::process::id()));
        std::fs::write(&path, "{\"name\":\"stale_line_from_last_run\"}\n").unwrap();
        std::env::set_var("BENCH_QUICK", "1");
        std::env::set_var("BENCH_JSON", path.to_str().unwrap());
        let mut c = Criterion::default();
        let mut x = 0u64;
        c.bench_function("shim_truncate_first", |b| b.iter(|| x = x.wrapping_add(1)));
        c.bench_function("shim_truncate_second", |b| b.iter(|| x = x.wrapping_add(1)));
        std::env::remove_var("BENCH_JSON");
        let contents = std::fs::read_to_string(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        assert!(
            !contents.contains("stale_line_from_last_run"),
            "first write must truncate the stale baseline: {contents}"
        );
        assert!(
            contents.contains("shim_truncate_first"),
            "first benchmark line missing: {contents}"
        );
        assert!(
            contents.contains("shim_truncate_second"),
            "later benchmarks must append, not truncate: {contents}"
        );
    }

    #[test]
    fn group_api_compiles_and_runs() {
        std::env::set_var("BENCH_QUICK", "1");
        let mut c = Criterion::default();
        let mut group = c.benchmark_group("g");
        group.sample_size(3).throughput(Throughput::Elements(4));
        group.bench_with_input(BenchmarkId::from_parameter(4), &4u64, |b, &n| {
            b.iter(|| (0..n).sum::<u64>())
        });
        group.finish();
    }
}
