//! The closed-loop driver shared by the four workloads: set-up, timed
//! window, verification, the traced run, and reporting.
//!
//! Load model: one client thread issues the next op when the previous
//! returns; a pass visits every request class once in seeded-shuffled
//! order; the window runs whole passes until `seconds` have elapsed.
//! `Instant` is the only clock.

use std::collections::{BTreeMap, HashMap};
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::sync::OnceLock;
use std::time::Instant;

use reml::trace::{MetricSnapshot, Recorder, TraceRecord};
use serde_json::Value;

use crate::metrics;
use crate::stats::{
    geomean, median, percentile, quartiles, shuffled_order, spread, tail_percentile,
};

/// Set-ups per end-to-end run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Ring capacity of the traced run's recorder; drained after every op.
const RECORDER_CAPACITY: usize = 1 << 21;
/// Records of the first traced ops kept for the Chrome trace file.
const CHROME_TRACE_RECORDS: usize = 50_000;

// ------------------------------------------------------------------ helpers

pub fn num(v: f64) -> Value {
    Value::Num(v)
}

pub fn obj(entries: Vec<(&str, Value)>) -> Value {
    Value::Object(
        entries
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// `got` within relative `tol` of a recorded value (a missing or
/// non-numeric reference never matches).
pub fn rel_close(got: f64, want: Option<f64>, tol: f64) -> bool {
    want.is_some_and(|w| (got - w).abs() <= tol * got.abs().max(w.abs()) + 1e-12)
}

/// Wall seconds `f` took, and what it returned.
pub fn timed<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let start = Instant::now();
    let value = f();
    (start.elapsed().as_secs_f64(), value)
}

/// Run `f` under a harness span; inert unless a recorder is installed.
pub fn stage<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    let _span = reml::trace::span(name);
    f()
}

/// Median time of `reps` calls of `f`, microseconds.
pub fn median_us<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    let times: Vec<f64> = (0..reps)
        .map(|_| {
            let (seconds, value) = timed(&mut f);
            black_box(value);
            seconds * 1e6
        })
        .collect();
    median(&times)
}

fn expected_file(workload: &str) -> &'static Value {
    static FILES: OnceLock<HashMap<&'static str, Value>> = OnceLock::new();
    let files = FILES.get_or_init(|| {
        [
            ("plan_sweep", include_str!("../expected/plan_sweep.json")),
            (
                "adapt_faults",
                include_str!("../expected/adapt_faults.json"),
            ),
            ("exec_dense", include_str!("../expected/exec_dense.json")),
            ("exec_sparse", include_str!("../expected/exec_sparse.json")),
        ]
        .into_iter()
        .map(|(name, text)| {
            let value =
                serde_json::from_str(text).unwrap_or_else(|e| panic!("expected/{name}.json: {e}"));
            (name, value)
        })
        .collect()
    });
    &files[workload]
}

/// The recorded reference under `key`, if one was recorded.
pub fn expected_lookup(workload: &str, key: &str) -> Option<&'static Value> {
    expected_file(workload).get(key)
}

/// The recorded reference under `key`; its absence fails the check.
pub fn expected_entry(workload: &str, key: &str) -> Result<&'static Value, String> {
    expected_lookup(workload, key)
        .ok_or_else(|| format!("no reference for {key} in expected/{workload}.json"))
}

// ----------------------------------------------------------------- workload

/// Per-layer metric values of one traced run; what is never set reads 0.
#[derive(Default)]
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    pub fn set(&mut self, name: &'static str, value: f64) {
        metrics::per_layer(name);
        self.0
            .insert(name, if value.is_finite() { value } else { 0.0 });
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }
}

#[derive(Default, Clone, Copy)]
pub struct SpanTotal {
    pub count: u64,
    pub total_us: u64,
    pub self_us: u64,
}

/// What the traced passes observed, handed to `Workload::layers`.
pub struct TracedRun<'a, O> {
    /// Traced passes; registry counters and span totals cover all of them.
    pub passes: u64,
    /// Each class's output (one op per class and pass).
    pub first: &'a [O],
    /// Per-class latency in the untraced half-window (`Window::class_best`).
    pub class_s: &'a [f64],
    /// Σ op latency over the traced passes, seconds.
    pub op_total_s: f64,
    pub spans: &'a HashMap<String, SpanTotal>,
    pub registry: &'a [(String, MetricSnapshot)],
}

impl<O> TracedRun<'_, O> {
    /// A registry counter, summed over the traced passes.
    pub fn counter(&self, name: &str) -> u64 {
        self.registry
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0, |(_, m)| match m {
                MetricSnapshot::Counter(v) => *v,
                _ => 0,
            })
    }

    pub fn per_pass(&self, name: &str) -> f64 {
        self.counter(name) as f64 / self.passes as f64
    }

    pub fn span(&self, name: &str) -> SpanTotal {
        self.spans.get(name).copied().unwrap_or_default()
    }

    /// `(name without prefix, Σ observed value)` of every registry
    /// histogram whose name starts with `prefix`.
    pub fn histograms<'s>(&'s self, prefix: &'s str) -> impl Iterator<Item = (&'s str, f64)> {
        self.registry.iter().filter_map(move |(name, m)| match m {
            MetricSnapshot::Histogram { sum, .. } => {
                name.strip_prefix(prefix).map(|rest| (rest, *sum as f64))
            }
            _ => None,
        })
    }
}

pub trait Workload: Sized {
    /// What an op returns, reduced to values that repeat exactly.
    type Output: Clone + PartialEq + std::fmt::Debug;
    const NAME: &'static str;
    /// The fixed tail percentile (`stats::tail_percentile` of the sample
    /// count at the default run length).
    const TAIL: f64;

    /// Everything the workload holds fixed: data, analyzed and compiled
    /// programs, configurations.
    fn prepare(seed: u64, smoke: bool) -> Self;
    fn classes(&self) -> usize;
    fn class_label(&self, c: usize) -> &str;
    /// One request of class `c`: the seconds spent inside `reml`, and the
    /// output. `Err` is a failed op.
    fn op(&self, c: usize) -> Result<(f64, Self::Output), String>;
    /// Check an output against references that are not the code under test.
    fn check(&self, c: usize, out: &Self::Output) -> Result<(), String>;
    /// Damage an output so that `check` must reject it (checker self-test).
    fn corrupt(out: &mut Self::Output);
    fn output_value(&self, out: &Self::Output) -> Value;
    /// Key under which `record` stores the class's output, if it does.
    fn expected_key(&self, c: usize) -> Option<String> {
        Some(self.class_label(c).to_string())
    }
    /// Sizes actually used, for the result file.
    fn sizes(&self) -> Value;
    /// Stage timers, probes and counts of the layers this workload uses,
    /// and the layer-separation checks.
    fn layers(&self, run: &TracedRun<'_, Self::Output>, out: &mut Layers) -> Result<(), String>;
}

// ------------------------------------------------------------------ options

#[derive(Clone)]
pub struct Options {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
    pub out_dir: PathBuf,
}

pub fn default_out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// The last line of a run: what the driver parses.
pub struct Summary {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value, unit)`
    pub metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Summary {
    pub fn to_json_line(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let entry = obj(vec![
                    ("value", num(*value)),
                    ("unit", Value::Str(unit.to_string())),
                ]);
                (name.to_string(), entry)
            })
            .collect();
        serde_json::to_string(&obj(vec![
            ("correct", Value::Bool(self.correct)),
            ("attempted", num(self.attempted as f64)),
            ("failed", num(self.failed as f64)),
            ("metrics", Value::Object(metrics)),
        ]))
        .expect("serializes")
    }
}

// ------------------------------------------------------------------- window

struct Sample {
    class: usize,
    seconds: f64,
}

#[derive(Default)]
struct Window {
    samples: Vec<Sample>,
    /// Σ op latency per pass.
    pass_s: Vec<f64>,
    attempted: u64,
    failed: u64,
    /// First few failure messages, for the report.
    errors: Vec<String>,
}

impl Window {
    /// Count `ops` failed ops under one message.
    fn fail(&mut self, ops: u64, message: String) {
        self.failed += ops;
        if self.errors.len() < 8 {
            self.errors.push(message);
        }
    }

    fn latencies(&self) -> Vec<f64> {
        self.samples.iter().map(|s| s.seconds).collect()
    }

    fn by_class(&self, classes: usize) -> Vec<Vec<f64>> {
        let mut per_class = vec![Vec::new(); classes];
        for s in &self.samples {
            per_class[s.class].push(s.seconds);
        }
        per_class
    }

    /// Each class's latency: the fastest of its repeats in the window. A
    /// class's repeats do identical work and return identical output, so
    /// what separates them is the machine, and the machine only adds time.
    /// The sandbox's vCPUs slow down by up to a half for seconds at a
    /// stretch; the median of a class's repeats follows that, the fastest
    /// repeat far less (README, "Steadiness", has both measured). `Err`
    /// names a class no op of which completed.
    fn class_best(&self, classes: usize) -> Result<Vec<f64>, usize> {
        self.by_class(classes)
            .iter()
            .enumerate()
            .map(|(c, v)| v.iter().copied().reduce(f64::min).ok_or(c))
            .collect()
    }

    fn errors_value(&self) -> Value {
        Value::Array(self.errors.iter().map(|e| Value::Str(e.clone())).collect())
    }
}

/// The timing metrics of a window under one reading of op latency.
fn timing_metrics(latencies: &[f64], class_s: &[f64], tail: f64) -> [(&'static str, f64); 4] {
    [
        (
            "ops_per_s",
            latencies.len() as f64 / latencies.iter().sum::<f64>(),
        ),
        ("op_p50_ms", median(latencies) * 1e3),
        ("op_tail_ms", percentile(latencies, tail) * 1e3),
        ("class_geomean_ms", geomean(class_s) * 1e3),
    ]
}

/// prepare + one warm-up pass in class order; the warm-up outputs are the
/// outputs every later repeat must equal. Its time is prepare's plus the
/// warm-up ops' latencies.
fn set_up<W: Workload>(opts: &Options) -> Result<(W, Vec<W::Output>, f64), String> {
    let (mut seconds, w) = timed(|| W::prepare(opts.seed, opts.smoke));
    let mut first = Vec::with_capacity(w.classes());
    for c in 0..w.classes() {
        let (op_s, out) = w
            .op(c)
            .map_err(|e| format!("warm-up {}: {e}", w.class_label(c)))?;
        seconds += op_s;
        first.push(out);
    }
    Ok((w, first, seconds))
}

/// Whole passes until `seconds` of wall time have gone by. `after_op` runs
/// after each op (the traced run drains the recorder there).
fn run_window<W: Workload>(
    w: &W,
    first: &[W::Output],
    seed: u64,
    seconds: f64,
    mut after_op: impl FnMut(),
) -> Window {
    let mut window = Window::default();
    let start = Instant::now();
    let mut pass = 0u64;
    while pass == 0 || start.elapsed().as_secs_f64() < seconds {
        let mut pass_s = 0.0;
        for c in shuffled_order(w.classes(), seed, pass) {
            window.attempted += 1;
            match w.op(c) {
                Ok((seconds, out)) => {
                    pass_s += seconds;
                    window.samples.push(Sample { class: c, seconds });
                    if out != first[c] {
                        window.fail(
                            1,
                            format!("{}: repeat differs from first", w.class_label(c)),
                        );
                    }
                }
                Err(e) => window.fail(1, format!("{}: {e}", w.class_label(c))),
            }
            after_op();
        }
        window.pass_s.push(pass_s);
        pass += 1;
    }
    window
}

/// Check every class's first output; a class that fails its check fails
/// every op of that class.
fn verify<W: Workload>(w: &W, first: &[W::Output], window: &mut Window) {
    for (c, out) in first.iter().enumerate() {
        if let Err(e) = w.check(c, out) {
            let ops = window.samples.iter().filter(|s| s.class == c).count() as u64;
            window.fail(ops.max(1), format!("{}: {e}", w.class_label(c)));
        }
    }
    window.failed = window.failed.min(window.attempted);
}

/// `VmHWM`: the most memory this process has had resident, so far.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

// ----------------------------------------------------------------- metadata

fn read_trimmed(path: impl AsRef<Path>) -> Option<String> {
    std::fs::read_to_string(path)
        .ok()
        .map(|s| s.trim().to_string())
}

fn commit() -> String {
    let git = Path::new(env!("CARGO_MANIFEST_DIR")).join("../.git");
    let head = read_trimmed(git.join("HEAD"));
    match head.as_deref().and_then(|h| h.strip_prefix("ref: ")) {
        Some(reference) => read_trimmed(git.join(reference)),
        None => head,
    }
    .unwrap_or_else(|| "unknown".into())
}

fn metadata(opts: &Options) -> Vec<(&'static str, Value)> {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let load1 = read_trimmed("/proc/loadavg")
        .and_then(|s| s.split(' ').next().and_then(|v| v.parse::<f64>().ok()))
        .unwrap_or(-1.0);
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    vec![
        ("commit", Value::Str(commit())),
        ("seed", num(opts.seed as f64)),
        ("seconds", num(opts.seconds)),
        ("smoke", Value::Bool(opts.smoke)),
        ("nproc", num(nproc as f64)),
        ("cpu_model", Value::Str(cpu)),
        ("load_avg_1min", num(load1)),
    ]
}

fn write_result(opts: &Options, file: &str, value: &Value) -> Result<PathBuf, String> {
    std::fs::create_dir_all(&opts.out_dir).map_err(|e| format!("{:?}: {e}", opts.out_dir))?;
    let path = opts.out_dir.join(file);
    let mut text = serde_json::to_string_pretty(value).expect("serializes");
    text.push('\n');
    std::fs::write(&path, text).map_err(|e| format!("{path:?}: {e}"))?;
    Ok(path)
}

fn unix_millis() -> u128 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_millis())
}

fn values(v: &[f64]) -> Value {
    Value::Array(v.iter().map(|x| num(*x)).collect())
}

fn timing_value(values: &[f64]) -> Value {
    let (q1, med, q3) = quartiles(values);
    obj(vec![
        ("median", num(med)),
        ("q1", num(q1)),
        ("q3", num(q3)),
        ("n", num(values.len() as f64)),
    ])
}

fn print_timing(name: &str, unit: &str, scale: f64, values: &[f64]) {
    let (q1, med, q3) = quartiles(values);
    println!(
        "  {name:<28} {:>12.4} {unit:<4} [{:.4}, {:.4}] (n={})",
        med * scale,
        q1 * scale,
        q3 * scale,
        values.len()
    );
}

// ------------------------------------------------------------- untraced run

/// The end-to-end run, tracing off: set-up, the timed window, peak memory,
/// verification, then the rest of the `SETUPS` set-ups.
pub fn run_end_to_end<W: Workload>(opts: &Options) -> Result<Summary, String> {
    reml::trace::uninstall();
    let (w, first, first_setup_s) = set_up::<W>(opts)?;
    let mut window = run_window(&w, &first, opts.seed, opts.seconds, || {});
    // Read here, the high-water mark is one set-up and the window: this
    // process runs one workload, and the repeated set-ups come after.
    let rss_mb = peak_rss_mb()?;
    verify(&w, &first, &mut window);

    let class_s = window.class_best(w.classes()).map_err(|c| {
        format!(
            "no op of {} completed: {:?}",
            w.class_label(c),
            window.errors
        )
    })?;
    // Every op counted at its class's latency: the issue's definitions of
    // the four timing metrics, applied to this sample.
    let steady: Vec<f64> = window.samples.iter().map(|s| class_s[s.class]).collect();
    // The same four over the latencies as each op measured them.
    let latencies = window.latencies();
    let per_class = window.by_class(w.classes());
    let class_medians: Vec<f64> = per_class.iter().map(|v| median(v)).collect();
    let as_measured = timing_metrics(&latencies, &class_medians, W::TAIL);
    let pass_spread = spread(&window.pass_s);
    let noisy = pass_spread > metrics::end_to_end("ops_per_s").bound;
    let sizes = w.sizes();
    let class_labels: Vec<String> = (0..w.classes())
        .map(|c| w.class_label(c).to_string())
        .collect();

    // One workload at a time, as a user would hold it.
    drop((w, first));
    let mut setup_s = vec![first_setup_s];
    for _ in 1..SETUPS {
        setup_s.push(set_up::<W>(opts)?.2);
    }

    let mut reported = vec![("setup_s", median(&setup_s))];
    reported.extend(timing_metrics(&steady, &class_s, W::TAIL));
    reported.push(("peak_rss_mb", rss_mb));

    println!(
        "== {} (seed {}, {} classes, {} passes, {} ops) ==",
        W::NAME,
        opts.seed,
        class_labels.len(),
        window.pass_s.len(),
        latencies.len()
    );
    print_timing("set-up", "s", 1.0, &setup_s);
    print_timing("op latency, as measured", "ms", 1e3, &latencies);
    print_timing("class latency (fastest)", "ms", 1e3, &class_s);
    print_timing("pass (sum of op latency)", "s", 1.0, &window.pass_s);
    for (name, value) in &reported {
        let unit = &metrics::end_to_end(name).unit;
        let mut note = as_measured
            .iter()
            .find(|(n, _)| n == name)
            .map_or(String::new(), |(_, v)| format!("  (as measured {v:.4})"));
        if *name == "op_tail_ms" {
            note += &format!(
                "  p{} of n={}; ten samples beyond allow p{}",
                W::TAIL,
                latencies.len(),
                tail_percentile(latencies.len())
            );
        }
        println!("  {name:<28} {value:>12.4} {unit:<4}{note}");
    }
    println!(
        "  attempted {} failed {}{}",
        window.attempted,
        window.failed,
        if noisy {
            format!("  NOISY: pass-to-pass spread {pass_spread:.3}")
        } else {
            String::new()
        }
    );
    for e in &window.errors {
        println!("  FAILED {e}");
    }

    let as_object = |pairs: &[(&str, f64)]| {
        Value::Object(
            pairs
                .iter()
                .map(|(name, value)| (name.to_string(), num(*value)))
                .collect(),
        )
    };
    let mut entries = metadata(opts);
    entries.extend([
        ("kind", Value::Str("end_to_end".into())),
        ("workload", Value::Str(W::NAME.into())),
        ("sizes", sizes),
        ("attempted", num(window.attempted as f64)),
        ("failed", num(window.failed as f64)),
        ("noisy", Value::Bool(noisy)),
        ("pass_spread", num(pass_spread)),
        ("pass_s", values(&window.pass_s)),
        ("setup_s", values(&setup_s)),
        ("op_latency_s", timing_value(&latencies)),
        ("tail_percentile", num(W::TAIL)),
        // Every repeat of every class, in the order they ran.
        (
            "class_latency_s",
            Value::Object(
                class_labels
                    .into_iter()
                    .zip(&per_class)
                    .map(|(label, v)| (label, values(v)))
                    .collect(),
            ),
        ),
        ("metrics", as_object(&reported)),
        ("as_measured", as_object(&as_measured)),
        ("errors", window.errors_value()),
    ]);
    let file = format!("{}.seed{}.{}.e2e.json", W::NAME, opts.seed, unix_millis());
    let path = write_result(opts, &file, &obj(entries))?;
    println!("  wrote {}", path.display());

    Ok(Summary {
        correct: window.failed == 0,
        attempted: window.attempted,
        failed: window.failed,
        metrics: reported
            .iter()
            .map(|(name, value)| (*name, *value, metrics::end_to_end(name).unit.as_str()))
            .collect(),
    })
}

// --------------------------------------------------------------- traced run

fn merge_attribution(into: &mut HashMap<String, SpanTotal>, records: &[TraceRecord]) {
    for row in reml::trace::attribute(records).rows {
        let total = into.entry(row.name).or_default();
        total.count += row.count;
        total.total_us += row.total_us;
        total.self_us += row.self_us;
    }
}

/// The traced run: an untraced half-window, a traced half-window with a
/// recorder installed, then the workload's stage timers and probes.
pub fn run_traced<W: Workload>(opts: &Options) -> Result<Summary, String> {
    reml::trace::uninstall();
    let (w, first, _) = set_up::<W>(opts)?;
    let half = opts.seconds / 2.0;
    let untraced = run_window(&w, &first, opts.seed, half, || {});
    let never = |c: usize| format!("no op of {} completed", w.class_label(c));
    let class_s = untraced.class_best(w.classes()).map_err(never)?;

    let recorder = Recorder::new(RECORDER_CAPACITY);
    reml::trace::metrics().reset();
    reml::trace::install(recorder.clone());
    let mut spans: HashMap<String, SpanTotal> = HashMap::new();
    let mut chrome: Vec<TraceRecord> = Vec::new();
    let mut records = 0u64;
    let mut window = run_window(&w, &first, opts.seed, half, || {
        let drained = recorder.drain();
        records += drained.len() as u64;
        merge_attribution(&mut spans, &drained);
        if chrome.len() < CHROME_TRACE_RECORDS {
            chrome.extend(drained);
        }
    });
    reml::trace::uninstall();
    let registry = reml::trace::metrics().snapshot();
    let passes = window.pass_s.len() as u64;
    verify(&w, &first, &mut window);

    let op_span = spans
        .get(&format!("bench.{}.op", W::NAME))
        .copied()
        .unwrap_or_default();
    let stage_us: u64 = spans
        .iter()
        .filter(|(name, _)| name.starts_with("bench.stage."))
        .map(|(_, s)| s.total_us)
        .sum();
    let untraced_s: f64 = class_s.iter().sum();
    let traced_s: f64 = window.class_best(w.classes()).map_err(never)?.iter().sum();

    let mut layers = Layers::default();
    layers.set(
        "trace.coverage",
        stage_us as f64 / op_span.total_us.max(1) as f64,
    );
    layers.set("trace.overhead_share", traced_s / untraced_s - 1.0);
    layers.set("trace.records", records as f64 / passes as f64);
    layers.set("trace.records_dropped", recorder.dropped() as f64);
    let run = TracedRun {
        passes,
        first: &first,
        class_s: &class_s,
        op_total_s: window.pass_s.iter().sum(),
        spans: &spans,
        registry: &registry,
    };
    // A failed probe or check counts as one failed operation.
    if let Err(e) = w.layers(&run, &mut layers) {
        window.attempted += 1;
        window.fail(1, format!("layers: {e}"));
    }
    if layers.get("trace.coverage") < 0.95 {
        window.attempted += 1;
        window.fail(
            1,
            format!(
                "trace.coverage {:.3} < 0.95: stage spans do not reconcile with op wall",
                layers.get("trace.coverage")
            ),
        );
    }

    println!(
        "== {} traced (seed {}, {} classes, {} untraced + {} traced passes) ==",
        W::NAME,
        opts.seed,
        w.classes(),
        untraced.pass_s.len(),
        passes
    );
    let per_layer = &metrics::contract().per_layer;
    let mut layer = "";
    for m in per_layer {
        if metrics::layer_of(&m.name) != layer {
            layer = metrics::layer_of(&m.name);
            println!("  {layer}: should move {}", metrics::moves(layer));
        }
        let exact = if m.exact { "  exact" } else { "" };
        println!(
            "    {:<36} {:>18.6} {}{exact}",
            m.name,
            layers.get(&m.name),
            m.unit
        );
    }
    println!("  attempted {} failed {}", window.attempted, window.failed);
    for e in &window.errors {
        println!("  FAILED {e}");
    }

    let mut rows: Vec<(&String, &SpanTotal)> = spans.iter().collect();
    rows.sort_by(|a, b| b.1.self_us.cmp(&a.1.self_us).then(a.0.cmp(b.0)));
    let mut entries = metadata(opts);
    entries.extend([
        ("kind", Value::Str("layers".into())),
        ("workload", Value::Str(W::NAME.into())),
        ("sizes", w.sizes()),
        ("traced_passes", num(passes as f64)),
        ("attempted", num(window.attempted as f64)),
        ("failed", num(window.failed as f64)),
        (
            "metrics",
            Value::Object(
                per_layer
                    .iter()
                    .map(|m| (m.name.clone(), num(layers.get(&m.name))))
                    .collect(),
            ),
        ),
        (
            "should_move",
            Value::Object(
                metrics::MOVES
                    .iter()
                    .map(|(layer, moves)| (layer.to_string(), Value::Str(moves.to_string())))
                    .collect(),
            ),
        ),
        // Self time per span name over the traced passes.
        (
            "self_time",
            Value::Array(
                rows.iter()
                    .take(60)
                    .map(|(name, s)| {
                        obj(vec![
                            ("span", Value::Str((*name).clone())),
                            ("count", num(s.count as f64)),
                            ("self_us", num(s.self_us as f64)),
                            ("total_us", num(s.total_us as f64)),
                        ])
                    })
                    .collect(),
            ),
        ),
        // Every counter and histogram the program published while traced.
        ("registry", reml::trace::metrics().to_value()),
        ("errors", window.errors_value()),
    ]);
    let file = format!(
        "{}.seed{}.{}.layers.json",
        W::NAME,
        opts.seed,
        unix_millis()
    );
    let path = write_result(opts, &file, &obj(entries))?;
    println!("  wrote {}", path.display());
    let trace_path = opts.out_dir.join(format!("{}.trace.json", W::NAME));
    std::fs::write(&trace_path, reml::trace::to_chrome_trace(&chrome))
        .map_err(|e| format!("{trace_path:?}: {e}"))?;
    println!("  wrote {}", trace_path.display());

    Ok(Summary {
        correct: window.failed == 0,
        attempted: window.attempted,
        failed: window.failed,
        metrics: per_layer
            .iter()
            .map(|m| (m.name.as_str(), layers.get(&m.name), m.unit.as_str()))
            .collect(),
    })
}

// ------------------------------------------------------- record / self-test

/// One op per class, keyed for `expected/<workload>.json`.
pub fn record<W: Workload>(seed: u64, into: &mut Vec<(String, Value)>) -> Result<(), String> {
    let w = W::prepare(seed, false);
    for c in 0..w.classes() {
        if let Some(key) = w.expected_key(c) {
            let (_, out) = w.op(c)?;
            into.push((key, w.output_value(&out)));
        }
    }
    Ok(())
}

/// The checker's own test: every class's output passes, and the same
/// output corrupted does not. Full size, so that every class has its
/// recorded reference.
pub fn self_test<W: Workload>(seed: u64) -> Result<(), String> {
    let w = W::prepare(seed, false);
    for c in 0..w.classes() {
        let (_, out) = w.op(c)?;
        w.check(c, &out)
            .map_err(|e| format!("{} rejected a good output: {e}", w.class_label(c)))?;
        let mut bad = out.clone();
        W::corrupt(&mut bad);
        if w.check(c, &bad).is_ok() {
            return Err(format!(
                "{}/{}: corrupted output passed its check",
                W::NAME,
                w.class_label(c)
            ));
        }
    }
    println!(
        "self-test {}: {} corrupted outputs rejected",
        W::NAME,
        w.classes()
    );
    Ok(())
}
