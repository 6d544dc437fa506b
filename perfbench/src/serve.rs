//! The `serve-mixed` workload against `simc serve`.
//!
//! A run has two phases. The measured phase is a closed loop: requests go
//! out back to back from one connection, each as soon as the one before
//! was answered, except that the two halves of a duplicate pair go out at
//! once on both connections. The daemon never waits long for work, so a
//! latency is the service time of a busy daemon, not the time a host
//! takes to wake an idle core. The end-to-end metrics come from it. Then
//! an open-loop ladder offers fixed rates whatever the daemon does, from
//! at most [`SLOTS`] concurrent connections; each latency there runs from
//! the request's scheduled send time, so a stall also charges the wait it
//! imposes on the requests behind it, and the generator reports how late
//! it sent. The ladder gives the highest sustainable rate.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Barrier, Mutex};
use std::time::{Duration, Instant};

use simc_obs::json::{self, Value};

use crate::http;
use crate::specs::{rename, Base, Deck, Rng, Spec};

/// Client connections at most: the ladder's, and a duplicate pair's.
pub const SLOTS: usize = 2;
/// Daemon worker threads.
pub const WORKERS: usize = 2;
/// The phase index of the closed-loop measured phase.
pub const CLOSED: usize = 0;
/// Requests per second of `--seconds` in the closed-loop phase. Sized so
/// the phase takes about half the run on one CPU of a 2-core x86-64 host
/// (`run.sh` pins the benchmark and the daemon to one CPU); the count
/// is fixed in advance, so a faster daemon finishes it sooner and the
/// rank the tail is read at does not move.
const CLOSED_PER_SECOND: f64 = 200.0;
/// Offered rates of the open-loop ladder after the measured phase, each
/// at least 1.5x the one before, [`LADDER_SHARE`] of the run in all. The
/// lowest, 50 req/s, is an assumed rate, not taken from measured traffic.
pub const LADDER: &[f64] = &[50.0, 100.0, 150.0, 225.0, 340.0, 500.0, 750.0];
const LADDER_SHARE: f64 = 0.35;
/// Tail-latency limit: a request slower than this misses, and a rate
/// whose tail exceeds it is not sustainable.
pub const LIMIT_MS: f64 = 50.0;
/// Kinds per deal of 20 requests, the mix the benchmark's specification
/// suggests: 14 warm (70%), 4 cold (20%) and one duplicate pair (10%).
const KINDS: [(Kind, usize); 3] = [(Kind::Warm, 14), (Kind::Cold, 4), (Kind::Duplicate, 1)];
/// Endpoints, evenly spread: no measured traffic gives another split.
const ENDPOINTS: [(Endpoint, usize); 3] = [
    (Endpoint::Verify, 1),
    (Endpoint::Synth, 1),
    (Endpoint::Convert, 1),
];
/// The generator sleeps until this long before a send time, then spins,
/// so timer wake-up delay does not count as the daemon's latency.
const SPIN: Duration = Duration::from_micros(300);

/// A daemon endpoint the mix exercises.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Endpoint {
    /// `POST /v1/verify`.
    Verify,
    /// `POST /v1/synth`.
    Synth,
    /// `POST /v1/convert` with `X-Simc-Format: edif`.
    Convert,
}

impl Endpoint {
    /// All endpoints, in report order.
    pub const ALL: [Endpoint; 3] = [Endpoint::Verify, Endpoint::Synth, Endpoint::Convert];

    /// The endpoint's short name.
    pub fn name(self) -> &'static str {
        match self {
            Endpoint::Verify => "verify",
            Endpoint::Synth => "synth",
            Endpoint::Convert => "convert",
        }
    }

    fn path(self) -> &'static str {
        match self {
            Endpoint::Verify => "/v1/verify",
            Endpoint::Synth => "/v1/synth",
            Endpoint::Convert => "/v1/convert",
        }
    }
}

/// Whether a request repeats a warm spec or brings a fresh one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A spec of the warm set, answered from the cache.
    Warm,
    /// A fresh renaming: computes, then writes to the cache.
    Cold,
    /// One of two identical fresh requests sent at once (single-flight).
    Duplicate,
}

/// One scheduled request.
#[derive(Debug, Clone)]
pub struct Request {
    /// Send time, from the start of the ladder; zero in the closed loop.
    pub due: Duration,
    /// Which endpoint.
    pub endpoint: Endpoint,
    /// Which base spec the body renames.
    pub base: usize,
    /// Warm, cold or duplicate.
    pub kind: Kind,
    /// [`CLOSED`] for the measured phase, `i + 1` for ladder rung `i`.
    pub phase: usize,
    /// The spec text.
    pub body: String,
}

/// Bases cheap enough to compute on a cold request: at most two inserted
/// state signals.
pub fn is_small(base: &Base) -> bool {
    base.added <= 2
}

/// The request schedule of one run: a fixed count for the closed loop
/// ([`CLOSED`]), then one rung per [`LADDER`] rate (phases
/// `1..=LADDER.len()`), evenly spaced within each rung.
/// Kinds and endpoints are dealt together from one deck, every kind
/// with every endpoint ([`KINDS`] × [`ENDPOINTS`]), so each pairing comes
/// up equally often whatever the seed; warm specs and cold bases come
/// from decks of their own. Cold and duplicate requests bring a fresh
/// renaming of a small base; the two halves of a pair are adjacent.
pub fn plan(seed: u64, bases: &[Base], warm: &[Spec], seconds: f64) -> Vec<Request> {
    let mut rng = Rng::new(seed, "serve-mixed.plan");
    let pairs: Vec<((Kind, Endpoint), usize)> = KINDS
        .iter()
        .flat_map(|&(kind, k)| ENDPOINTS.iter().map(move |&(e, n)| ((kind, e), k * n)))
        .collect();
    let mut pairs = Deck::new(&pairs);
    let mut warm_specs = Deck::new(&(0..warm.len()).map(|i| (i, 1)).collect::<Vec<_>>());
    let small: Vec<(usize, usize)> = (0..bases.len())
        .filter(|&b| is_small(&bases[b]))
        .map(|b| (b, 1))
        .collect();
    let mut small = Deck::new(&small);
    let rung_seconds = seconds * LADDER_SHARE / LADDER.len() as f64;
    // (requests, first due time, spacing) per phase.
    let phases = std::iter::once((CLOSED_PER_SECOND * seconds, 0.0, 0.0)).chain(
        LADDER
            .iter()
            .enumerate()
            .map(|(i, &rate)| (rate * rung_seconds, i as f64 * rung_seconds, 1.0 / rate)),
    );
    let mut requests = Vec::new();
    for (phase, (count, begin, spacing)) in phases.enumerate() {
        let count = count.round() as usize;
        let mut i = 0;
        while i < count {
            let due = Duration::from_secs_f64(begin + i as f64 * spacing);
            let (kind, endpoint) = pairs.deal(&mut rng);
            let mut push = |kind, base, body: String| {
                requests.push(Request {
                    due,
                    endpoint,
                    base,
                    kind,
                    phase,
                    body,
                });
            };
            match kind {
                Kind::Warm => {
                    let spec = &warm[warm_specs.deal(&mut rng)];
                    push(Kind::Warm, spec.base, spec.text.clone());
                    i += 1;
                }
                kind => {
                    let base = small.deal(&mut rng);
                    let body = rename(&bases[base].text, &mut rng);
                    if kind == Kind::Cold || i + 1 == count {
                        push(Kind::Cold, base, body);
                        i += 1;
                    } else {
                        push(Kind::Duplicate, base, body.clone());
                        push(Kind::Duplicate, base, body);
                        i += 2;
                    }
                }
            }
        }
    }
    requests
}

/// When one request was due, sent and answered, from the schedule start.
#[derive(Debug, Clone, Copy)]
pub struct Timing {
    /// Scheduled send time.
    pub due: Duration,
    /// Actual send time.
    pub sent: Duration,
    /// Last response byte read.
    pub done: Duration,
}

impl Timing {
    /// Latency from the scheduled send time.
    pub fn latency(&self) -> Duration {
        self.done.saturating_sub(self.due)
    }

    /// How late the generator sent the request.
    pub fn late(&self) -> Duration {
        self.sent.saturating_sub(self.due)
    }
}

/// Runs `op(i)` for `i` in `0..n` in turn, each as soon as the one
/// before returned, except that when `paired(i)` holds, ops `i` and
/// `i + 1` run at once on two threads. An op returns when its answer was
/// complete and its result. Each timing is due when it was sent, from
/// `start`; results are in order.
pub fn closed_loop<R: Send>(
    n: usize,
    paired: impl Fn(usize) -> bool,
    start: Instant,
    op: impl Fn(usize) -> (Instant, R) + Sync,
) -> Vec<(Timing, R)> {
    let timed = |i: usize| {
        let sent = start.elapsed();
        let (done, result) = op(i);
        let done = done.saturating_duration_since(start);
        let timing = Timing {
            due: sent,
            sent,
            done,
        };
        (timing, result)
    };
    let mut results = Vec::with_capacity(n);
    let mut i = 0;
    while i < n {
        if i + 1 < n && paired(i) {
            let both = Barrier::new(2);
            let (first, second) = std::thread::scope(|scope| {
                let second = scope.spawn(|| {
                    both.wait();
                    timed(i + 1)
                });
                both.wait();
                let first = timed(i);
                (first, second.join().expect("no op panics"))
            });
            results.push(first);
            results.push(second);
            i += 2;
        } else {
            results.push(timed(i));
            i += 1;
        }
    }
    results
}

/// Runs `op(i)` for every entry of `due` (ascending offsets from `start`)
/// from `slots` threads, each op starting no earlier than its due time.
/// An op returns when its answer was complete (for a request, its last
/// byte, before the client checks it) and its result. Returns each op's
/// timing and result, in schedule order.
pub fn open_loop<R: Send>(
    due: &[Duration],
    slots: usize,
    start: Instant,
    op: impl Fn(usize) -> (Instant, R) + Sync,
) -> Vec<(Timing, R)> {
    let next = AtomicUsize::new(0);
    let results: Mutex<Vec<Option<(Timing, R)>>> =
        Mutex::new((0..due.len()).map(|_| None).collect());
    std::thread::scope(|scope| {
        for _ in 0..slots {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= due.len() {
                    break;
                }
                let target = start + due[i];
                let now = Instant::now();
                if target > now + SPIN {
                    std::thread::sleep(target - now - SPIN);
                }
                while Instant::now() < target {
                    std::hint::spin_loop();
                }
                let sent = start.elapsed();
                let (done, result) = op(i);
                let timing = Timing {
                    due: due[i],
                    sent,
                    done: done.saturating_duration_since(start),
                };
                results.lock().expect("no op panics while holding the lock")[i] =
                    Some((timing, result));
            });
        }
    });
    results
        .into_inner()
        .expect("no op panicked")
        .into_iter()
        .map(|r| r.expect("every scheduled op ran"))
        .collect()
}

/// A checked response.
#[derive(Debug)]
pub struct Answer {
    /// When the last response byte arrived, or the request failed.
    pub received: Instant,
    /// `X-Simc-Flight` role.
    pub flight: Option<String>,
    /// `None` when correct, else what was wrong.
    pub error: Option<String>,
    /// Parsed response body.
    pub body: Option<Value>,
}

/// Sends one spec to an endpoint and checks the answer against `base`.
pub fn send(addr: &str, endpoint: Endpoint, base: &Base, body: &str, stats: bool) -> Answer {
    let mut headers = vec![];
    if endpoint == Endpoint::Convert {
        headers.push(("X-Simc-Format", "edif"));
    }
    if stats {
        headers.push(("X-Simc-Stats", "1"));
    }
    match http::request(addr, "POST", endpoint.path(), &headers, body) {
        Err(e) => Answer {
            received: Instant::now(),
            flight: None,
            error: Some(format!("{} {}: {e}", base.name, endpoint.name())),
            body: None,
        },
        Ok(response) => {
            let parsed = json::parse(&response.body).ok();
            let error = check(endpoint, base, response.status, parsed.as_ref());
            Answer {
                received: response.received,
                flight: response.flight,
                error,
                body: parsed,
            }
        }
    }
}

fn check(endpoint: Endpoint, base: &Base, status: u16, body: Option<&Value>) -> Option<String> {
    let what = format!("{} {}", base.name, endpoint.name());
    if status != 200 {
        return Some(format!("{what}: status {status}"));
    }
    let Some(body) = body else {
        return Some(format!("{what}: unparsable body"));
    };
    let num = |key: &str| body.get(key).and_then(Value::as_u64);
    let text = |key: &str| body.get(key).and_then(Value::as_str);
    let wrong = match endpoint {
        Endpoint::Verify => {
            text("verdict") != Some("hazard-free") || num("added_signals") != Some(base.added)
        }
        Endpoint::Synth => {
            num("added_signals") != Some(base.added) || num("literals") != Some(base.literals)
        }
        Endpoint::Convert => {
            text("format") != Some("edif") || !text("text").is_some_and(|t| t.starts_with("(edif"))
        }
    };
    wrong.then(|| format!("{what}: unexpected answer {}", json_brief(body)))
}

fn json_brief(body: &Value) -> String {
    let keys = ["verdict", "added_signals", "literals", "format", "bytes"];
    keys.iter()
        .filter_map(|k| body.get(k).map(|v| format!("{k}={v:?}")))
        .collect::<Vec<_>>()
        .join(" ")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_runs_from_the_scheduled_time_and_lateness_is_reported() {
        // One slot, every request due at once, each taking 20 ms: request k
        // waits for the k before it, and its latency includes that wait.
        let service = Duration::from_millis(20);
        let due = vec![Duration::ZERO; 4];
        let timings = open_loop(&due, 1, Instant::now(), |_| {
            std::thread::sleep(service);
            (Instant::now(), ())
        });
        for (k, (t, ())) in timings.iter().enumerate() {
            assert!(
                t.late() >= service * k as u32,
                "request {k} late by {:?}",
                t.late()
            );
            assert!(
                t.latency() >= service * (k as u32 + 1),
                "request {k}: {:?}",
                t.latency()
            );
            assert!(
                t.latency() >= t.done - t.sent,
                "latency covers the service time"
            );
        }
        // Spaced wider than the service time, nothing runs late.
        let due: Vec<Duration> = (0..3).map(|k| Duration::from_millis(40 * k)).collect();
        let timings = open_loop(&due, 1, Instant::now(), |_| {
            std::thread::sleep(Duration::from_millis(5));
            (Instant::now(), ())
        });
        for (t, ()) in &timings {
            assert!(
                t.late() < Duration::from_millis(15),
                "late by {:?}",
                t.late()
            );
            assert!(t.sent >= t.due);
        }
    }

    #[test]
    fn plan_is_seeded_and_follows_the_mix() {
        let bases = crate::specs::assign_bases();
        let warm = crate::specs::rounds(&bases, 5, "warm", 1).remove(0);
        let a = plan(5, &bases, &warm, 10.0);
        let b = plan(5, &bases, &warm, 10.0);
        assert_eq!(a.len(), b.len());
        assert!(a
            .iter()
            .zip(&b)
            .all(|(x, y)| x.body == y.body && x.due == y.due));
        let share = |kind| a.iter().filter(|r| r.kind == kind).count() as f64 / a.len() as f64;
        assert!(
            (0.6..0.8).contains(&share(Kind::Warm)),
            "{}",
            share(Kind::Warm)
        );
        assert!(share(Kind::Duplicate) > 0.05);
        assert!(a
            .iter()
            .filter(|r| r.kind != Kind::Warm)
            .all(|r| is_small(&bases[r.base])));
        assert!(a.windows(2).all(|w| w[0].due <= w[1].due));
        let endpoint = |e| a.iter().filter(|r| r.endpoint == e).count() as f64 / a.len() as f64;
        for e in Endpoint::ALL {
            assert!((0.3..0.37).contains(&endpoint(e)), "{e:?}: {}", endpoint(e));
        }
        let closed: Vec<_> = a.iter().filter(|r| r.phase == CLOSED).collect();
        assert!((closed.len() as f64 - CLOSED_PER_SECOND * 10.0).abs() <= 1.0);
        assert!(closed.iter().all(|r| r.due == Duration::ZERO));
        assert!(a.iter().take(closed.len()).all(|r| r.phase == CLOSED));
        let rung = 10.0 * LADDER_SHARE / LADDER.len() as f64;
        for (i, rate) in LADDER.iter().enumerate() {
            let n = a.iter().filter(|r| r.phase == i + 1).count() as f64;
            assert!((n - rate * rung).abs() <= 1.0, "rung {i}: {n}");
        }
        // Duplicates come in adjacent pairs of the same body.
        let mut i = 0;
        while i < a.len() {
            if a[i].kind == Kind::Duplicate {
                assert_eq!(a[i + 1].kind, Kind::Duplicate);
                assert_eq!(a[i].body, a[i + 1].body);
                i += 2;
            } else {
                i += 1;
            }
        }
    }

    #[test]
    fn closed_loop_runs_back_to_back_and_pairs_at_once() {
        // Ops 1 and 2 are a pair; the others run one after another.
        let service = Duration::from_millis(20);
        let start = Instant::now();
        let timings = closed_loop(
            4,
            |i| i == 1,
            start,
            |_| {
                std::thread::sleep(service);
                (Instant::now(), ())
            },
        );
        let t: Vec<Timing> = timings.iter().map(|(t, ())| *t).collect();
        for timing in &t {
            assert_eq!(timing.late(), Duration::ZERO, "due when sent");
            assert!(timing.latency() >= service);
        }
        assert!(t[1].sent >= t[0].done, "the next op waits for the answer");
        assert!(
            t[2].sent < t[1].done && t[1].sent < t[2].done,
            "a pair is in flight at once: {:?} {:?}",
            t[1],
            t[2]
        );
        assert!(t[3].sent >= t[1].done.max(t[2].done));
    }
}
