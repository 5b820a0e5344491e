//! Spans recorded by the benchmark's own code around calls into each
//! layer's public functions, kept in memory and written out when the run
//! ends. Nothing inside the program is instrumented: a layer's time is
//! what its public call costs seen from outside.

use adept_core::model::mix::ServerAssignment;
use adept_core::planner::online::{MixReplan, Replan};
use adept_core::planner::{OnlinePlanner, Revise, ReviseError, WarmCache};
use adept_hierarchy::DeploymentPlan;
use adept_platform::Platform;
use adept_workload::{ClientDemand, MixDemand, ServiceMix, ServiceSpec};
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// One timed call.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start: Duration,
    pub end: Duration,
    /// Index of the span that was open when this one began.
    pub parent: Option<usize>,
    /// The request (tick, question, iteration) the call served.
    pub request: u64,
}

struct Spans {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// A span recorder; `Tracer::off()` records nothing. Clones share one
/// recorder, so a clone can be handed into the reviser the controller
/// calls and its spans nest under the controller's tick.
#[derive(Clone)]
pub struct Tracer(Option<Arc<Mutex<Spans>>>);

impl Tracer {
    pub fn off() -> Tracer {
        Tracer(None)
    }

    pub fn on() -> Tracer {
        Tracer(Some(Arc::new(Mutex::new(Spans {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }))))
    }

    /// A recorder for another thread, on the same clock: on when this
    /// one is on.
    pub fn fork(&self) -> Tracer {
        Tracer(self.0.as_ref().map(|spans| {
            let epoch = spans.lock().expect("span recorder is never poisoned").epoch;
            Arc::new(Mutex::new(Spans {
                epoch,
                spans: Vec::new(),
                open: Vec::new(),
            }))
        }))
    }

    /// Records a span whose name is known only once the call returned.
    pub fn record(&self, name: &'static str, request: u64, began: Instant, took: Duration) {
        let Some(spans) = &self.0 else {
            return;
        };
        let mut s = spans.lock().expect("span recorder is never poisoned");
        let start = began.saturating_duration_since(s.epoch);
        let parent = s.open.last().copied();
        s.spans.push(Span {
            name,
            start,
            end: start + took,
            parent,
            request,
        });
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<T>(&self, name: &'static str, request: u64, f: impl FnOnce() -> T) -> T {
        let Some(spans) = &self.0 else {
            return f();
        };
        let index = {
            let mut s = spans.lock().expect("span recorder is never poisoned");
            let parent = s.open.last().copied();
            let start = s.epoch.elapsed();
            s.spans.push(Span {
                name,
                start,
                end: start,
                parent,
                request,
            });
            let index = s.spans.len() - 1;
            s.open.push(index);
            index
        };
        let result = f();
        let mut s = spans.lock().expect("span recorder is never poisoned");
        s.spans[index].end = s.epoch.elapsed();
        s.open.pop();
        result
    }

    /// Moves every span of `other` (a recorder used on another thread)
    /// into this one.
    pub fn absorb(&self, other: &Tracer) {
        let (Some(mine), Some(theirs)) = (&self.0, &other.0) else {
            return;
        };
        let taken = std::mem::take(
            &mut theirs
                .lock()
                .expect("span recorder is never poisoned")
                .spans,
        );
        let mut s = mine.lock().expect("span recorder is never poisoned");
        let offset = s.spans.len();
        s.spans.extend(taken.into_iter().map(|mut span| {
            span.parent = span.parent.map(|p| p + offset);
            span
        }));
    }

    pub fn spans(&self) -> Vec<Span> {
        self.0.as_ref().map_or_else(Vec::new, |s| {
            s.lock()
                .expect("span recorder is never poisoned")
                .spans
                .clone()
        })
    }

    /// Writes every span as one JSON line.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"name\":\"{}\",\"start_us\":{:.3},\"end_us\":{:.3},\"parent\":{},\"request\":{}}}",
                s.name,
                s.start.as_secs_f64() * 1e6,
                s.end.as_secs_f64() * 1e6,
                parent,
                s.request
            )?;
        }
        out.flush()
    }
}

/// Per-name totals over a set of spans.
#[derive(Default)]
pub struct Layer {
    /// Span durations, seconds.
    pub durations: Vec<f64>,
    /// Durations minus the time their child spans cover, seconds.
    pub self_times: Vec<f64>,
    /// Durations of spans that had no child span, seconds.
    pub leaf_durations: Vec<f64>,
}

pub fn layers(spans: &[Span]) -> BTreeMap<&'static str, Layer> {
    let mut child_time = vec![0.0f64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_time[p] += (s.end - s.start).as_secs_f64();
        }
    }
    let mut out: BTreeMap<&'static str, Layer> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        let d = (s.end - s.start).as_secs_f64();
        let layer = out.entry(s.name).or_default();
        layer.durations.push(d);
        layer.self_times.push(d - child_time[i]);
        if child_time[i] == 0.0 {
            layer.leaf_durations.push(d);
        }
    }
    out
}

/// The controller's reviser, timed from outside: an [`OnlinePlanner`]
/// behind the public [`Revise`] trait, recording a span per revision and
/// counting the node-level changes each revision proposes.
pub struct TimedRevise {
    pub inner: OnlinePlanner,
    pub tracer: Tracer,
    pub changes: Arc<AtomicU64>,
}

impl TimedRevise {
    fn record(&self, r: Result<MixReplan, ReviseError>) -> Result<MixReplan, ReviseError> {
        if let Ok(replan) = &r {
            self.changes
                .fetch_add(replan.changes() as u64, Ordering::Relaxed);
        }
        r
    }
}

impl Revise for TimedRevise {
    fn name(&self) -> &str {
        Revise::name(&self.inner)
    }

    fn revise(
        &self,
        platform: &Platform,
        running: &DeploymentPlan,
        service: &ServiceSpec,
        demand: ClientDemand,
    ) -> Result<Replan, ReviseError> {
        self.inner.revise(platform, running, service, demand)
    }

    fn revise_mix(
        &self,
        platform: &Platform,
        running: &DeploymentPlan,
        mix: &ServiceMix,
        assignment: &ServerAssignment,
        demand: &MixDemand,
    ) -> Result<MixReplan, ReviseError> {
        let r = self.tracer.time("core.online.revise", 0, || {
            self.inner
                .revise_mix(platform, running, mix, assignment, demand)
        });
        self.record(r)
    }

    fn revise_mix_warm(
        &self,
        platform: &Platform,
        running: &DeploymentPlan,
        mix: &ServiceMix,
        assignment: &ServerAssignment,
        demand: &MixDemand,
        warm: &mut WarmCache,
    ) -> Result<MixReplan, ReviseError> {
        let r = self.tracer.time("core.online.revise", 0, || {
            self.inner
                .revise_mix_warm(platform, running, mix, assignment, demand, warm)
        });
        self.record(r)
    }
}

/// Round trips of `frames` (one line each, newline included) through a
/// raw loopback echo server, from two connections at once as the
/// workloads drive the daemon: the cost of the transport alone, with no
/// JSON and no daemon behind it.
pub fn echo(frames: &[String], tracer: &Tracer) -> std::io::Result<()> {
    const CONNECTIONS: usize = 2;
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let addr = listener.local_addr()?;
    let serve = |stream: TcpStream| -> std::io::Result<()> {
        stream.set_nodelay(true)?;
        let mut writer = stream.try_clone()?;
        let mut reader = BufReader::new(stream);
        let mut line = String::new();
        while reader.read_line(&mut line)? > 0 {
            writer.write_all(line.as_bytes())?;
            writer.flush()?;
            line.clear();
        }
        Ok(())
    };
    let drive = |c: usize, tracer: &Tracer| -> std::io::Result<()> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let mut writer = stream.try_clone()?;
        let mut reader = BufReader::new(stream);
        let mut back = String::new();
        for (i, frame) in frames.iter().enumerate().skip(c).step_by(CONNECTIONS) {
            tracer.time(
                "serve.transport.echo",
                i as u64,
                || -> std::io::Result<()> {
                    writer.write_all(frame.as_bytes())?;
                    writer.flush()?;
                    back.clear();
                    reader.read_line(&mut back)?;
                    Ok(())
                },
            )?;
        }
        Ok(())
    };
    std::thread::scope(|scope| -> std::io::Result<()> {
        let mut servers = Vec::new();
        let mut clients = Vec::new();
        for c in 0..CONNECTIONS {
            let own = tracer.fork();
            clients.push(scope.spawn(move || drive(c, &own).map(|()| own)));
            let (stream, _) = listener.accept()?;
            servers.push(scope.spawn(move || serve(stream)));
        }
        for client in clients {
            let own = client.join().expect("echo clients do not panic")?;
            tracer.absorb(&own);
        }
        for server in servers {
            server.join().expect("echo servers do not panic")?;
        }
        Ok(())
    })
}

/// Every per-layer metric the traced run reports: name, unit, and the
/// workloads on which the layer is predicted idle. A metric a workload
/// does not measure reads zero there; a predicted-idle layer that reads
/// anything else is reported as a warning.
pub const PER_LAYER: [(&str, &str, &[&str]); 33] = [
    ("serve.transport.echo_us", "us", &["pipeline-1e6"]),
    ("serve.wire.parse_us", "us", &["pipeline-1e6"]),
    ("serve.wire.encode_us", "us", &["pipeline-1e6"]),
    (
        "serve.journal.append_us",
        "us",
        &["what-if", "pipeline-1e6"],
    ),
    (
        "serve.journal.bytes_per_tick",
        "B",
        &["what-if", "pipeline-1e6"],
    ),
    (
        "serve.session.observe_us",
        "us",
        &["what-if", "pipeline-1e6"],
    ),
    ("serve.daemon.self_us", "us", &["pipeline-1e6"]),
    (
        "serve.session.register_ms",
        "ms",
        &["what-if", "pipeline-1e6"],
    ),
    ("serve.journal.read_ms", "ms", &["what-if", "pipeline-1e6"]),
    (
        "serve.session.resume_ms",
        "ms",
        &["what-if", "pipeline-1e6"],
    ),
    ("control.tick_us", "us", &["what-if", "pipeline-1e6"]),
    ("control.replans", "count", &["what-if", "pipeline-1e6"]),
    ("control.migrations", "count", &["what-if", "pipeline-1e6"]),
    ("control.warm_share", "share", &["what-if", "pipeline-1e6"]),
    ("control.noop_share", "share", &["what-if", "pipeline-1e6"]),
    ("core.online.revise_ms", "ms", &["pipeline-1e6"]),
    ("core.online.changes", "count", &["pipeline-1e6"]),
    ("godiet.migrate_ms", "ms", &["what-if", "pipeline-1e6"]),
    (
        "godiet.substitutions",
        "count",
        &["what-if", "pipeline-1e6"],
    ),
    (
        "hierarchy.diff_changes",
        "count",
        &["what-if", "pipeline-1e6"],
    ),
    ("core.mix.plan_ms", "ms", &["pipeline-1e6"]),
    (
        "serve.cache.exact_share",
        "share",
        &["tenant-day", "pipeline-1e6"],
    ),
    (
        "serve.cache.near_share",
        "share",
        &["tenant-day", "pipeline-1e6"],
    ),
    ("serve.cache.miss_share", "share", &["pipeline-1e6"]),
    (
        "serve.cache.exact_ms",
        "ms",
        &["tenant-day", "pipeline-1e6"],
    ),
    ("serve.cache.near_ms", "ms", &["tenant-day", "pipeline-1e6"]),
    ("core.heuristic.plan_ms", "ms", &["tenant-day", "what-if"]),
    (
        "core.throughput.evaluate_us",
        "us",
        &["tenant-day", "what-if"],
    ),
    (
        "core.incremental.build_ms",
        "ms",
        &["tenant-day", "what-if"],
    ),
    ("core.sweep.plan_ms", "ms", &["tenant-day", "what-if"]),
    ("platform.generate_s", "s", &[]),
    (
        "trace.tick_cover_share",
        "share",
        &["what-if", "pipeline-1e6"],
    ),
    ("trace.overhead_share", "share", &[]),
];
