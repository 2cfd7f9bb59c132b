//! # exsample-bench
//!
//! Shared infrastructure for the experiment binaries that regenerate the paper's
//! tables and figures (see `src/bin/`).  Performance is measured end to end,
//! and per layer, by the repository benchmark under `benchmark/`, not here.
//!
//! Every experiment binary accepts the same small set of command-line flags:
//!
//! * `--full` — run at the paper's full scale (16 M-frame simulations, full-size
//!   dataset analogs, 21 trials).  The default is a reduced configuration that
//!   reproduces the *shape* of each result in seconds rather than hours.
//! * `--trials N` — override the number of trials (`--trials 0` is rejected:
//!   every experiment needs at least one).
//! * `--scale X` — override the dataset scale factor (dataset-analog experiments).
//! * `--seed N` — root seed (default 7).
//! * `--parallel N` — cut each stage's detector invocations over N lanes (the
//!   calling thread plus N − 1 threads of the engine's per-run worker pool;
//!   no flag = serial;
//!   `--parallel 0` is rejected with the engine's typed `InvalidExecution`
//!   message; results are bitwise-identical to serial execution).
//! * `--cache N` — enable the engine's detections cache with
//!   capacity N entries (no flag = off; `--cache 0` is rejected — leave the
//!   flag off instead).  Cache accounting is bitwise-deterministic across
//!   `--parallel`, and the run summary gains a cache telemetry line.
//! * `--retries N` — allow N retries per frame whose detect attempt failed
//!   (0 = off, the default; backoff is charged as deterministic stage cost).
//! * `--fault-rate X` — wrap every detector in a seeded deterministic fault
//!   injector with transient-fault probability X per (frame, attempt); the
//!   run degrades by dropping frames that exhaust their attempts (tallied in
//!   the report) instead of aborting.  Same seed + same rate ⇒ bitwise-identical
//!   degraded results, regardless of `--parallel`.
//! * `--checkpoint PATH` — persist every ExSample run's per-chunk posterior
//!   and query results to the durable belief store at PATH (crash-safe log +
//!   snapshot; a torn tail from a kill is recovered and reported on the next
//!   open).  Checkpointing is a pure observer: outcomes and the virtual
//!   clock are bitwise-identical to an uncheckpointed run.  Runner-driven
//!   bins only, and single-writer — combine with `--trials 1`.
//! * `--warm-start PATH` — seed every ExSample run's posterior from the
//!   belief store at PATH before sampling starts, instead of the uniform
//!   prior (runner-driven bins only).
//! * `--csv` — emit CSV instead of aligned text tables.
//!
//! The binaries print the regenerated table/figure data to stdout.

#![warn(missing_docs)]
#![deny(unsafe_code)]

/// Command-line options shared by every experiment binary.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentOptions {
    /// Run at the paper's full scale.
    pub full: bool,
    /// Number of trials (None = the experiment's default for the chosen scale).
    pub trials: Option<usize>,
    /// Dataset scale factor (None = the experiment's default).
    pub scale: Option<f64>,
    /// Root seed.
    pub seed: u64,
    /// Worker threads for the DETECT phase.  The default (no `--parallel`
    /// flag) is serial execution; `--parallel 0` is rejected at parse time
    /// with the engine's typed `InvalidExecution` message, and `--parallel 1`
    /// is serial execution under another name.
    pub parallel: usize,
    /// Capacity of the engine's detections cache (0 = off, the
    /// default).
    pub cache: usize,
    /// Retries allowed per frame whose detect attempt failed (0 = off).
    pub retries: u32,
    /// Transient-fault probability per (frame, attempt) for the deterministic
    /// fault injector (0.0 = no injection, the default).
    pub fault_rate: f64,
    /// Durable belief-store directory every ExSample run checkpoints into
    /// (None = no checkpointing, the default).
    pub checkpoint: Option<std::path::PathBuf>,
    /// Belief-store directory ExSample runs warm-start their posterior from
    /// (None = cold start, the default).
    pub warm_start: Option<std::path::PathBuf>,
    /// Emit CSV instead of plain tables.
    pub csv: bool,
}

impl Default for ExperimentOptions {
    fn default() -> Self {
        ExperimentOptions {
            full: false,
            trials: None,
            scale: None,
            seed: 7,
            parallel: 0,
            cache: 0,
            retries: 0,
            fault_rate: 0.0,
            checkpoint: None,
            warm_start: None,
            csv: false,
        }
    }
}

impl ExperimentOptions {
    /// Parse options from an argument iterator (typically `std::env::args().skip(1)`).
    ///
    /// Unknown flags produce an error string listing the supported flags.
    pub(crate) fn parse<I: IntoIterator<Item = String>>(args: I) -> Result<Self, String> {
        let mut options = ExperimentOptions::default();
        let mut iter = args.into_iter();
        while let Some(arg) = iter.next() {
            match arg.as_str() {
                "--full" => options.full = true,
                "--csv" => options.csv = true,
                "--trials" => {
                    let value = iter.next().ok_or("--trials requires a value")?;
                    let trials: usize = value
                        .parse()
                        .map_err(|_| format!("bad --trials value: {value}"))?;
                    if trials == 0 {
                        return Err("--trials must be at least 1".to_string());
                    }
                    options.trials = Some(trials);
                }
                "--scale" => {
                    let value = iter.next().ok_or("--scale requires a value")?;
                    let scale: f64 = value
                        .parse()
                        .map_err(|_| format!("bad --scale value: {value}"))?;
                    if !exsample_data::DatasetAnalog::valid_scale(scale) {
                        return Err(format!(
                            "--scale must be in (0, {}], got {value}",
                            exsample_data::DatasetAnalog::MAX_SCALE
                        ));
                    }
                    options.scale = Some(scale);
                }
                "--seed" => {
                    let value = iter.next().ok_or("--seed requires a value")?;
                    options.seed = value
                        .parse()
                        .map_err(|_| format!("bad --seed value: {value}"))?;
                }
                "--parallel" => {
                    let value = iter.next().ok_or("--parallel requires a value")?;
                    let parallel: usize = value
                        .parse()
                        .map_err(|_| format!("bad --parallel value: {value}"))?;
                    if parallel == 0 {
                        // Surface the engine's typed error text instead of
                        // silently treating 0 as serial (or letting the
                        // engine reject it deep inside a run).
                        return Err(format!(
                            "--parallel 0: {}",
                            exsample_engine::EngineError::InvalidExecution { threads: 0 }
                        ));
                    }
                    options.parallel = parallel;
                }
                "--cache" => {
                    let value = iter.next().ok_or("--cache requires a value")?;
                    let cache: usize = value
                        .parse()
                        .map_err(|_| format!("bad --cache value: {value}"))?;
                    if cache == 0 {
                        return Err("--cache must be at least 1 (omit the flag to run uncached)"
                            .to_string());
                    }
                    options.cache = cache;
                }
                "--retries" => {
                    let value = iter.next().ok_or("--retries requires a value")?;
                    let retries: u32 = value
                        .parse()
                        .map_err(|_| format!("bad --retries value: {value}"))?;
                    // The attempt budget, retries + 1, must fit in a u32.
                    if retries.checked_add(1).is_none() {
                        return Err(format!("--retries must be below {}, got {value}", u32::MAX));
                    }
                    options.retries = retries;
                }
                "--fault-rate" => {
                    let value = iter.next().ok_or("--fault-rate requires a value")?;
                    let rate: f64 = value
                        .parse()
                        .map_err(|_| format!("bad --fault-rate value: {value}"))?;
                    if !(0.0..=1.0).contains(&rate) {
                        return Err(format!(
                            "--fault-rate must be a probability in [0, 1], got {value}"
                        ));
                    }
                    options.fault_rate = rate;
                }
                "--checkpoint" => {
                    let value = iter
                        .next()
                        .ok_or("--checkpoint requires a directory path")?;
                    if value.is_empty() {
                        return Err("--checkpoint requires a non-empty path".to_string());
                    }
                    options.checkpoint = Some(std::path::PathBuf::from(value));
                }
                "--warm-start" => {
                    let value = iter
                        .next()
                        .ok_or("--warm-start requires a directory path")?;
                    if value.is_empty() {
                        return Err("--warm-start requires a non-empty path".to_string());
                    }
                    options.warm_start = Some(std::path::PathBuf::from(value));
                }
                "--help" | "-h" => {
                    return Err("supported flags: --full --trials N --scale X --seed N \
                         --parallel N --cache N --retries N \
                         --fault-rate X --checkpoint PATH --warm-start PATH --csv"
                        .to_string())
                }
                other => return Err(format!("unknown flag `{other}` (try --help)")),
            }
        }
        Ok(options)
    }

    /// Parse from the process arguments, printing the error and exiting on failure.
    pub fn from_env() -> Self {
        match ExperimentOptions::parse(std::env::args().skip(1)) {
            Ok(options) => options,
            Err(message) => {
                eprintln!("{message}");
                std::process::exit(2);
            }
        }
    }

    /// The number of trials to run, given the experiment's defaults for the reduced
    /// and full configurations.
    pub fn trials_or(&self, reduced: usize, full: usize) -> usize {
        self.trials
            .unwrap_or(if self.full { full } else { reduced })
    }

    /// The dataset scale to use, given the experiment's defaults.
    pub fn scale_or(&self, reduced: f64) -> f64 {
        self.scale.unwrap_or(if self.full { 1.0 } else { reduced })
    }

    /// The thread (lane) count the engine will use for these options: no
    /// `--parallel` flag means serial execution — what the experiment
    /// banners report as provenance.
    pub fn effective_threads(&self) -> usize {
        self.parallel.max(1)
    }

    /// The retry policy implied by `--retries`: `--retries N` grants each
    /// failing frame N retries on top of its first attempt (so the engine's
    /// attempt budget is N+1), each charged one unit of exponential backoff
    /// as deterministic stage cost.  `--retries 0` (the default) is
    /// [`exsample_engine::RetryPolicy::none`].
    pub(crate) fn retry_policy(&self) -> exsample_engine::RetryPolicy {
        if self.retries == 0 {
            exsample_engine::RetryPolicy::none()
        } else {
            exsample_engine::RetryPolicy::new(self.retries + 1).backoff_cost(1)
        }
    }

    /// The failure mode implied by the options: fault-injecting runs degrade
    /// by dropping frames that exhaust their attempts (so a `--fault-rate`
    /// experiment completes with tallied losses), fault-free runs keep the
    /// engine's fail-fast default.
    pub(crate) fn failure_mode(&self) -> exsample_engine::FailureMode {
        if self.fault_rate > 0.0 {
            exsample_engine::FailureMode::DropFrames
        } else {
            exsample_engine::FailureMode::FailFast
        }
    }

    /// The deterministic fault plan implied by `--fault-rate` (None when the
    /// rate is zero).  The plan is seeded from `--seed`, so a degraded run is
    /// reproducible end to end.
    pub(crate) fn fault_plan(&self) -> Option<exsample_detect::FaultPlan> {
        (self.fault_rate > 0.0).then(|| {
            let seed = exsample_rand::SeedSequence::new(self.seed)
                .derive("fault-plan")
                .seed();
            exsample_detect::FaultPlan::new(seed).transient_rate(self.fault_rate)
        })
    }

    /// Apply the options' engine-shape, failure-model and durability knobs
    /// (`--parallel`, `--cache`, `--retries`, `--fault-rate`,
    /// `--checkpoint`, `--warm-start`) to a simulation
    /// [`exsample_sim::QueryRunner`] — the single place the runner-driven
    /// experiment bins pick them up.
    pub fn apply_to_runner<'d>(
        &self,
        runner: exsample_sim::QueryRunner<'d>,
    ) -> exsample_sim::QueryRunner<'d> {
        let mut runner = runner
            .cache(self.cache)
            .retry_policy(self.retry_policy())
            .failure_mode(self.failure_mode());
        if self.parallel > 1 {
            runner = runner.parallel(self.parallel);
        }
        if let Some(plan) = self.fault_plan() {
            runner = runner.fault_plan(plan);
        }
        if let Some(path) = &self.checkpoint {
            runner = runner.checkpoint(path.clone());
        }
        if let Some(path) = &self.warm_start {
            runner = runner.warm_start(path.clone());
        }
        runner
    }

    /// Wrap a detector in the options' fault injector, or return it unchanged
    /// when `--fault-rate` is zero.  Experiment bins route every detector
    /// they build through this before registering queries.
    pub fn faulty_detector(
        &self,
        detector: Box<dyn exsample_detect::Detector>,
    ) -> Box<dyn exsample_detect::Detector> {
        match self.fault_plan() {
            None => detector,
            Some(plan) => Box::new(exsample_detect::FaultInjectingDetector::new(detector, plan)),
        }
    }
}

/// Print `error` and its full `source()` chain as one line on stderr and exit
/// nonzero — the experiment bins' replacement for `expect` on fallible runs,
/// so a failing detector produces a typed one-liner instead of a panic
/// backtrace.
pub(crate) fn exit_with_error_chain(error: &dyn std::error::Error) -> ! {
    eprintln!("error: {}", format_error_chain(error));
    std::process::exit(1);
}

/// Render `error` and its `source()` chain as a single `: `-separated line.
pub(crate) fn format_error_chain(error: &dyn std::error::Error) -> String {
    let mut message = error.to_string();
    let mut cursor = error.source();
    while let Some(next) = cursor {
        message.push_str(": ");
        message.push_str(&next.to_string());
        cursor = next.source();
    }
    message
}

/// Unwrap `result`, exiting with the error's full chain on failure.
pub fn ok_or_exit<T, E: std::error::Error>(result: Result<T, E>) -> T {
    match result {
        Ok(value) => value,
        Err(error) => exit_with_error_chain(&error),
    }
}

/// A fresh engine with the options' execution mode, retry policy, failure
/// mode and cache applied — the engine constructor the experiment bins use,
/// so `--parallel`, `--retries`,
/// `--fault-rate` and `--cache` reach every engine-driven experiment the same
/// way.  No `--parallel` flag (or `--parallel 1`) means serial execution.
///
/// Returns the engine's typed [`exsample_engine::EngineError`] when the
/// thread count is not a valid execution mode, so callers route it through
/// the chained-error exit path ([`ok_or_exit`]) instead of panicking.
pub fn experiment_engine<'a>(
    options: &ExperimentOptions,
) -> Result<exsample_engine::QueryEngine<'a>, exsample_engine::EngineError> {
    let mut engine = exsample_engine::QueryEngine::new()
        .retry_policy(options.retry_policy())
        .failure_mode(options.failure_mode());
    if options.parallel > 1 {
        engine = engine.execution(exsample_engine::ExecutionMode::Parallel(options.parallel))?;
    }
    if options.cache > 0 {
        engine = engine.cache_capacity(options.cache);
    }
    Ok(engine)
}

/// Print a table in the format selected by the options.
pub fn print_table(options: &ExperimentOptions, table: &exsample_sim::Table) {
    if options.csv {
        print!("{}", table.to_csv());
    } else {
        print!("{}", table.to_plain());
    }
}

/// Print an experiment banner with its figure/table reference.
pub fn banner(reference: &str, description: &str, options: &ExperimentOptions) {
    println!("# {reference}: {description}");
    println!(
        "# mode: {}  seed: {}",
        if options.full {
            "full (paper scale)"
        } else {
            "reduced (default)"
        },
        options.seed
    );
    if options.fault_rate > 0.0 {
        println!(
            "# fault injection: transient rate {} per (frame, attempt), retries {} \
             (seeded from --seed; frames that exhaust their attempts are dropped and tallied)",
            options.fault_rate, options.retries
        );
    }
    if options.cache > 0 {
        println!(
            "# cache: detections LRU, capacity {} entries \
             (accounting is bitwise-deterministic across threads)",
            options.cache
        );
    }
    println!();
}

/// Merge the selection telemetry of every run in `results` into one summary
/// (None when no run carried telemetry, e.g. non-ExSample methods).
pub fn merged_selection_telemetry<'a, I>(results: I) -> Option<exsample_engine::SelectionTelemetry>
where
    I: IntoIterator<Item = &'a exsample_sim::RunResult>,
{
    let mut merged: Option<exsample_engine::SelectionTelemetry> = None;
    for result in results {
        if let Some(telemetry) = &result.selection {
            merged.get_or_insert_with(Default::default).merge(telemetry);
        }
    }
    merged
}

/// Print a one-line `#`-comment summary of merged dedup telemetry (hybrid-fold
/// vs per-chunk pick counts, Gamma draws saved, and the peak belief-class
/// count), or nothing when no run carried telemetry.  Bins whose runs go out
/// of scope per table cell accumulate with [`merged_selection_telemetry`] and
/// [`exsample_engine::SelectionTelemetry::merge`] and print here.
pub fn print_selection_telemetry(
    label: &str,
    telemetry: Option<&exsample_engine::SelectionTelemetry>,
) {
    if let Some(telemetry) = telemetry {
        println!(
            "# selection[{label}]: hybrid-fold picks {}, per-chunk picks {}, \
             gamma draws saved {}, peak classes {}",
            telemetry.class_max_picks,
            telemetry.per_chunk_picks,
            telemetry.draws_saved,
            telemetry.class_count
        );
    }
}

/// Merge the cache telemetry of every run in `results` into one summary
/// (None when no run carried telemetry, i.e. the cache was off).
pub fn merged_cache_telemetry<'a, I>(results: I) -> Option<exsample_engine::CacheActivity>
where
    I: IntoIterator<Item = &'a exsample_sim::RunResult>,
{
    let mut merged: Option<exsample_engine::CacheActivity> = None;
    for result in results {
        if let Some(activity) = result.cache {
            merged.get_or_insert_with(Default::default).absorb(activity);
        }
    }
    merged
}

/// Print a one-line `#`-comment summary of merged cache telemetry
/// (hits/misses/evictions), or nothing when the cache was off.  Experiment
/// bins print it after their tables so `--cache N` runs report warm-hit
/// savings next to recall; bins whose runs go out of scope per table cell
/// accumulate telemetry with [`exsample_engine::CacheActivity::absorb`]
/// first.
pub fn print_cache_telemetry(label: &str, cache: Option<&exsample_engine::CacheActivity>) {
    if let Some(cache) = cache {
        println!(
            "# cache[{label}]: hits {}, misses {}, evictions {}",
            cache.hits, cache.misses, cache.evictions
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<ExperimentOptions, String> {
        ExperimentOptions::parse(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn default_options() {
        let options = parse(&[]).unwrap();
        assert!(!options.full);
        assert_eq!(options.seed, 7);
        assert_eq!(options.trials_or(5, 21), 5);
        assert_eq!(options.scale_or(0.25), 0.25);
    }

    #[test]
    fn full_flag_switches_defaults() {
        let options = parse(&["--full"]).unwrap();
        assert!(options.full);
        assert_eq!(options.trials_or(5, 21), 21);
        assert_eq!(options.scale_or(0.25), 1.0);
    }

    #[test]
    fn explicit_values_override_defaults() {
        let options = parse(&["--trials", "9", "--scale", "0.5", "--seed", "3", "--csv"]).unwrap();
        assert_eq!(options.trials_or(5, 21), 9);
        assert_eq!(options.scale_or(0.25), 0.5);
        assert_eq!(options.seed, 3);
        assert!(options.csv);
    }

    #[test]
    fn scale_outside_the_dataset_range_is_a_usage_error() {
        for bad in ["0", "-1", "nan", "inf", "4.5"] {
            let err = parse(&["--scale", bad]).unwrap_err();
            assert!(err.contains("(0, 4]"), "{bad}: {err}");
        }
        assert_eq!(parse(&["--scale", "4"]).unwrap().scale_or(0.25), 4.0);
    }

    #[test]
    fn retries_whose_attempt_budget_overflows_are_rejected() {
        let max = u32::MAX.to_string();
        assert!(parse(&["--retries", &max]).unwrap_err().contains("below"));
        let below = (u32::MAX - 1).to_string();
        let options = parse(&["--retries", &below]).unwrap();
        assert_eq!(options.retry_policy().max_attempts(), u32::MAX);
    }

    #[test]
    fn bad_flags_are_rejected() {
        assert!(parse(&["--bogus"]).is_err());
        assert!(parse(&["--trials"]).is_err());
        assert!(parse(&["--trials", "abc"]).is_err());
        assert!(parse(&["--help"]).is_err());
    }

    #[test]
    fn shards_flag_is_rejected_as_unknown() {
        // Shards are a report view no bin prints; the former flag must fail
        // loudly, not be ignored.
        for args in [&["--shards", "4"][..], &["--shards"][..]] {
            let err = parse(args).unwrap_err();
            assert!(err.contains("unknown flag `--shards`"), "message: {err}");
        }
    }

    #[test]
    fn overlap_flag_is_rejected_as_unknown() {
        // Stages are never overlapped; the former flag must fail loudly, not
        // be ignored.
        let err = parse(&["--overlap"]).unwrap_err();
        assert!(err.contains("unknown flag `--overlap`"), "message: {err}");
    }

    #[test]
    fn selection_flag_is_rejected_as_unknown() {
        // How the Thompson arg-max is evaluated is decided by the chunk count;
        // the former knob must fail loudly, not be ignored.
        for args in [&["--selection", "class-max"][..], &["--selection"][..]] {
            let err = parse(args).unwrap_err();
            assert!(err.contains("unknown flag `--selection`"), "message: {err}");
        }
    }

    #[test]
    fn parallel_flag_parses_and_rejects_zero() {
        assert_eq!(parse(&[]).unwrap().parallel, 0);
        assert_eq!(parse(&["--parallel", "4"]).unwrap().parallel, 4);
        assert_eq!(parse(&["--parallel", "1"]).unwrap().parallel, 1);
        // `--parallel 0` surfaces the engine's typed InvalidExecution text
        // instead of silently running serial.
        let err = parse(&["--parallel", "0"]).unwrap_err();
        assert!(err.contains("--parallel 0"), "message: {err}");
        assert!(err.contains("at least one worker thread"), "message: {err}");
        assert!(parse(&["--parallel"]).is_err());
        assert!(parse(&["--parallel", "abc"]).is_err());
    }

    #[test]
    fn effective_threads_reports_the_lane_count() {
        assert_eq!(parse(&[]).unwrap().effective_threads(), 1);
        assert_eq!(parse(&["--parallel", "1"]).unwrap().effective_threads(), 1);
        assert_eq!(parse(&["--parallel", "8"]).unwrap().effective_threads(), 8);
    }

    #[test]
    fn merged_selection_telemetry_skips_runs_without_telemetry() {
        let result = |selection| exsample_sim::RunResult {
            method: "exsample".to_string(),
            frames_processed: 10,
            upfront_scan_frames: 0,
            distinct_found: 1,
            true_found: 1,
            total_instances: 2,
            found_instances: Vec::new(),
            trajectory: Vec::new(),
            scan_secs: 0.0,
            sample_secs: 0.0,
            detect_retries: 0,
            failed_frames: 0,
            dropped_frames: 0,
            selection,
            cache: None,
            store: None,
        };
        assert!(merged_selection_telemetry([&result(None)]).is_none());
        let telemetry = exsample_engine::SelectionTelemetry {
            class_max_picks: 5,
            per_chunk_picks: 2,
            draws_saved: 100,
            class_count: 3,
        };
        let merged = merged_selection_telemetry([
            &result(Some(telemetry)),
            &result(None),
            &result(Some(telemetry)),
        ])
        .unwrap();
        assert_eq!(merged.class_max_picks, 10);
        assert_eq!(merged.per_chunk_picks, 4);
        assert_eq!(merged.draws_saved, 200);
        assert_eq!(merged.class_count, 3);
    }

    #[test]
    fn trials_zero_is_a_usage_error() {
        let err = parse(&["--trials", "0"]).unwrap_err();
        assert!(
            err.contains("--trials must be at least 1"),
            "message: {err}"
        );
        assert_eq!(parse(&["--trials", "1"]).unwrap().trials_or(5, 21), 1);
    }

    #[test]
    fn cache_flag_parses_and_rejects_zero() {
        assert_eq!(parse(&[]).unwrap().cache, 0);
        assert_eq!(parse(&["--cache", "4096"]).unwrap().cache, 4096);
        let err = parse(&["--cache", "0"]).unwrap_err();
        assert!(err.contains("omit the flag"), "message: {err}");
        assert!(parse(&["--cache"]).is_err());
        assert!(parse(&["--cache", "abc"]).is_err());
    }

    #[test]
    fn merged_cache_telemetry_skips_runs_without_telemetry() {
        let result = |cache| exsample_sim::RunResult {
            method: "exsample".to_string(),
            frames_processed: 10,
            upfront_scan_frames: 0,
            distinct_found: 1,
            true_found: 1,
            total_instances: 2,
            found_instances: Vec::new(),
            trajectory: Vec::new(),
            scan_secs: 0.0,
            sample_secs: 0.0,
            detect_retries: 0,
            failed_frames: 0,
            dropped_frames: 0,
            selection: None,
            cache,
            store: None,
        };
        assert!(merged_cache_telemetry([&result(None)]).is_none());
        let activity = exsample_engine::CacheActivity {
            hits: 8,
            misses: 2,
            evictions: 1,
        };
        let merged = merged_cache_telemetry([
            &result(Some(activity)),
            &result(None),
            &result(Some(activity)),
        ])
        .unwrap();
        assert_eq!(merged.hits, 16);
        assert_eq!(merged.misses, 4);
        assert_eq!(merged.evictions, 2);
    }

    #[test]
    fn retries_and_fault_rate_flags_parse_and_validate() {
        let defaults = parse(&[]).unwrap();
        assert_eq!(defaults.retries, 0);
        assert_eq!(defaults.fault_rate, 0.0);
        assert_eq!(
            defaults.retry_policy(),
            exsample_engine::RetryPolicy::none()
        );
        assert_eq!(
            defaults.failure_mode(),
            exsample_engine::FailureMode::FailFast
        );
        assert!(defaults.fault_plan().is_none());

        let faulty = parse(&["--retries", "2", "--fault-rate", "0.1"]).unwrap();
        assert_eq!(faulty.retries, 2);
        assert_eq!(faulty.fault_rate, 0.1);
        // --retries N means N retries on top of the first attempt.
        assert_eq!(faulty.retry_policy().max_attempts(), 3);
        assert_eq!(
            faulty.failure_mode(),
            exsample_engine::FailureMode::DropFrames
        );
        assert!(faulty.fault_plan().is_some());
        // The plan is a pure function of the seed: same seed, same plan.
        assert_eq!(faulty.fault_plan(), faulty.fault_plan());
        let reseeded = parse(&["--fault-rate", "0.1", "--seed", "9"]).unwrap();
        assert_ne!(reseeded.fault_plan(), faulty.fault_plan());

        assert!(parse(&["--retries"]).is_err());
        assert!(parse(&["--retries", "abc"]).is_err());
        assert!(parse(&["--fault-rate"]).is_err());
        assert!(parse(&["--fault-rate", "1.5"]).is_err());
        assert!(parse(&["--fault-rate", "-0.1"]).is_err());
    }

    #[test]
    fn checkpoint_and_warm_start_flags_parse_and_validate() {
        let defaults = parse(&[]).unwrap();
        assert_eq!(defaults.checkpoint, None);
        assert_eq!(defaults.warm_start, None);

        let durable = parse(&["--checkpoint", "/tmp/store", "--warm-start", "/tmp/prior"]).unwrap();
        assert_eq!(
            durable.checkpoint.as_deref(),
            Some(std::path::Path::new("/tmp/store"))
        );
        assert_eq!(
            durable.warm_start.as_deref(),
            Some(std::path::Path::new("/tmp/prior"))
        );

        assert!(parse(&["--checkpoint"]).is_err());
        assert!(parse(&["--checkpoint", ""]).is_err());
        assert!(parse(&["--warm-start"]).is_err());
        assert!(parse(&["--warm-start", ""]).is_err());
        // The new flags appear in the --help listing.
        let help = parse(&["--help"]).unwrap_err();
        assert!(help.contains("--checkpoint PATH"), "help: {help}");
        assert!(help.contains("--warm-start PATH"), "help: {help}");
    }

    #[test]
    fn faulty_detector_wraps_only_under_a_nonzero_rate() {
        let truth = std::sync::Arc::new(exsample_detect::GroundTruth::default());
        let detector = |options: &ExperimentOptions| {
            options.faulty_detector(Box::new(exsample_detect::PerfectDetector::new(
                std::sync::Arc::clone(&truth),
                exsample_detect::ObjectClass::from("car"),
            )))
        };
        // With a zero rate the detector passes through untouched; with a
        // nonzero rate it still reports the same class through the wrapper.
        let plain = detector(&parse(&[]).unwrap());
        let wrapped = detector(&parse(&["--fault-rate", "0.2"]).unwrap());
        assert_eq!(plain.class().to_string(), "car");
        assert_eq!(wrapped.class().to_string(), "car");
    }

    #[test]
    fn format_error_chain_walks_every_source() {
        let source = exsample_detect::DetectError::Permanent {
            frame: 7,
            message: "backend rejected the frame".to_string(),
        };
        let error = exsample_engine::EngineError::DetectorFailed {
            class: "car".to_string(),
            frame: 7,
            attempts: 2,
            source,
        };
        let line = format_error_chain(&error);
        assert!(line.contains("car"), "chain: {line}");
        assert!(line.contains("backend rejected the frame"), "chain: {line}");
        assert!(!line.contains('\n'), "chain must be one line: {line}");
    }

    #[test]
    fn experiment_engine_builds_for_any_thread_count() {
        let engine = |args: &[&str]| experiment_engine(&parse(args).unwrap()).unwrap();
        let parallel = engine(&["--parallel", "2"]);
        assert_eq!(
            parallel.execution_mode(),
            exsample_engine::ExecutionMode::Parallel(2)
        );
        assert_eq!(
            parallel.shard_count(),
            1,
            "experiment engines are unsharded"
        );
        // No flag, or one thread, means serial execution.
        for args in [&[][..], &["--parallel", "1"][..]] {
            assert_eq!(
                engine(args).execution_mode(),
                exsample_engine::ExecutionMode::Serial
            );
        }
    }
}
