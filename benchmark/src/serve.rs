//! The two serve workloads: closed loops of one client driving
//! `ServeSession::handle_line` in-process — the code path of the
//! `precipice serve` stdin loop minus the pipe.
//!
//! - `serve_cliff`: one crashed node in a mapped million-node torus.
//! - `serve_storm`: 256 singleton cliffs at once on a 64×64 torus.
//!
//! Every reply is parsed and checked; a malformed or `ok:false` reply
//! fails the lifecycle and never panics.

use std::path::Path;
use std::time::{Duration, Instant};

use precipice_core::json::Json;
use precipice_net::ServeSession;

use crate::gen::{storm_lattice, torus_neighbours, SplitMix};
use crate::spans::Tracer;
use crate::stats::{ms, Fnv};
use crate::workload::{stream_big_torus, OpResult, Sizes, Workload};

/// `await` carries only a timeout: the completion rule is whatever the
/// server ships.
const AWAIT: &str = r#"{"cmd":"await","timeout_ms":30000}"#;
const STATUS: &str = r#"{"cmd":"status"}"#;
const CLOSE: &str = r#"{"cmd":"close"}"#;

/// Pause between `status` polls while waiting for a storm to decide.
const POLL_EVERY: Duration = Duration::from_micros(200);
/// A storm that has not decided by then has failed.
const POLL_LIMIT: Duration = Duration::from_secs(20);

/// Parses a reply line and insists on `"ok":true`.
pub fn ok_reply(line: &str) -> Result<Json, String> {
    let reply = Json::parse(line).map_err(|e| format!("malformed reply {line:?}: {e}"))?;
    match reply.get("ok").and_then(Json::as_bool) {
        Some(true) => Ok(reply),
        _ => Err(format!("refused: {line}")),
    }
}

fn field_u64(reply: &Json, key: &str) -> Result<u64, String> {
    reply
        .get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("reply lacks a whole number {key:?}: {reply}"))
}

fn expect_u64(reply: &Json, key: &str, want: u64) -> Result<(), String> {
    match field_u64(reply, key)? {
        got if got == want => Ok(()),
        got => Err(format!("{key} is {got}, expected {want}: {reply}")),
    }
}

fn expect_true(reply: &Json, key: &str) -> Result<(), String> {
    match reply.get(key).and_then(Json::as_bool) {
        Some(true) => Ok(()),
        _ => Err(format!("{key} is not true: {reply}")),
    }
}

fn node_list(reply: &Json, key: &str) -> Result<Vec<u64>, String> {
    reply
        .get(key)
        .and_then(Json::as_array)
        .and_then(|items| items.iter().map(Json::as_u64).collect::<Option<Vec<u64>>>())
        .ok_or_else(|| format!("reply lacks a node list {key:?}: {reply}"))
}

/// Checks one `read` reply: decided, on exactly the cliff `[crashed]`
/// with the four torus neighbours as border. Returns the agreed value.
fn check_read(reply: &Json, side: usize, crashed: u32) -> Result<u64, String> {
    expect_true(reply, "decided")?;
    if node_list(reply, "region")? != [u64::from(crashed)] {
        return Err(format!("region is not [{crashed}]: {reply}"));
    }
    let border = torus_neighbours(side, crashed).map(u64::from);
    if node_list(reply, "border")? != border {
        return Err(format!("border is not {border:?}: {reply}"));
    }
    let value = field_u64(reply, "value")?;
    if !border.contains(&value) {
        return Err(format!("value {value} is not a border node: {reply}"));
    }
    Ok(value)
}

/// One cliff of a lifecycle: the crashed node, and its border nodes
/// with the `read` command for each.
#[derive(Debug)]
struct Cliff {
    node: u32,
    crash: String,
    reads: Vec<String>,
}

impl Cliff {
    fn new(side: usize, node: u32) -> Self {
        Cliff {
            node,
            crash: format!(r#"{{"cmd":"crash","node":{node}}}"#),
            reads: torus_neighbours(side, node)
                .iter()
                .map(|b| format!(r#"{{"cmd":"read","node":{b}}}"#))
                .collect(),
        }
    }
}

/// Which of the two serve workloads a [`Serve`] is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Cliff,
    Storm,
}

/// What every lifecycle of a workload has in common.
#[derive(Debug)]
struct Plan {
    kind: Kind,
    side: usize,
    open: String,
    /// Shards the `open` reply must report.
    shards: u64,
}

/// A serve workload, set up: the session, the plan and the cliffs of a
/// lifecycle.
#[derive(Debug)]
pub struct Serve {
    plan: Plan,
    session: ServeSession,
    /// Storm: the same seeded cliffs every lifecycle. Cliff: unused.
    storm: Vec<Cliff>,
    seed: u64,
    warmup: u64,
}

impl Serve {
    /// `serve_cliff`: streams the big torus to `dir` and opens it by
    /// `pcsr:` path with no `shards` field, so the session default of
    /// two applies.
    pub fn cliff(sizes: &Sizes, seed: u64, dir: &Path) -> Result<Self, String> {
        let file = stream_big_torus(dir, sizes.big_side)?;
        let topology = format!("pcsr:{}", file.display());
        let open = Json::obj([
            ("cmd", Json::from("open")),
            ("topology", Json::from(topology)),
        ])
        .to_line();
        Ok(Serve {
            plan: Plan {
                kind: Kind::Cliff,
                side: sizes.big_side,
                open,
                shards: 2,
            },
            session: ServeSession::default(),
            storm: Vec::new(),
            seed,
            warmup: sizes.warmup_lifecycles,
        })
    }

    /// `serve_storm`: a generated torus on one shard, which with the
    /// polling client makes two busy threads on this two-CPU host.
    pub fn storm(sizes: &Sizes, seed: u64) -> Result<Self, String> {
        let side = sizes.storm_side;
        Ok(Serve {
            plan: Plan {
                kind: Kind::Storm,
                side,
                open: format!(r#"{{"cmd":"open","topology":"torus:{side}","shards":1}}"#),
                shards: 1,
            },
            session: ServeSession::default(),
            storm: storm_lattice(side, seed)
                .into_iter()
                .map(|node| Cliff::new(side, node))
                .collect(),
            seed,
            warmup: sizes.warmup_lifecycles,
        })
    }
}

/// One lifecycle: open, crash every cliff, (storm: poll until decided,)
/// await, read every border node, status, close. Any `Err` fails it.
fn lifecycle(
    session: &mut ServeSession,
    plan: &Plan,
    cliffs: &[Cliff],
    tracer: &mut Tracer,
    out: &mut OpResult,
) -> Result<(), String> {
    let nodes = (plan.side * plan.side) as u64;
    let border_nodes = 4 * cliffs.len() as u64;

    let opened = ok_reply(&tracer.span("open", |_| session.handle_line(&plan.open)))?;
    expect_u64(&opened, "nodes", nodes)?;
    expect_u64(&opened, "shards", plan.shards)?;

    let crashed_at = Instant::now();
    for cliff in cliffs {
        let reply = ok_reply(&tracer.span("crash", |_| session.handle_line(&cliff.crash)))?;
        expect_u64(&reply, "killed", u64::from(cliff.node))?;
    }

    if plan.kind == Kind::Storm {
        // One span for the whole wait: its self time is the waiting,
        // not the benchmark's own work.
        tracer.span("poll", |_| loop {
            let status = ok_reply(&session.handle_line(STATUS))?;
            if field_u64(&status, "decisions")? == border_nodes {
                return Ok(());
            }
            if crashed_at.elapsed() > POLL_LIMIT {
                return Err(format!("storm undecided after {POLL_LIMIT:?}: {status}"));
            }
            std::thread::sleep(POLL_EVERY);
        })?;
        out.decide_ms = Some(ms(crashed_at.elapsed()));
    }

    let awaited = ok_reply(&tracer.span("await", |_| session.handle_line(AWAIT)))?;
    out.latency_ms = Some(ms(crashed_at.elapsed()));
    expect_true(&awaited, "quiescent")?;
    expect_u64(&awaited, "pending", 0)?;

    let mut hash = Fnv::new();
    for cliff in cliffs {
        let mut agreed = None;
        for read in &cliff.reads {
            let line = tracer.span("read", |_| session.handle_line(read));
            hash.bytes(line.as_bytes());
            let value = check_read(&ok_reply(&line)?, plan.side, cliff.node)?;
            if *agreed.get_or_insert(value) != value {
                return Err(format!("border of {} disagrees on the value", cliff.node));
            }
        }
    }
    out.hash = hash.0;

    let status = ok_reply(&tracer.span("status", |_| session.handle_line(STATUS)))?;
    expect_u64(&status, "activated", border_nodes)?;
    expect_u64(&status, "decisions", border_nodes)?;
    expect_u64(&status, "pending", 0)?;

    let closed = ok_reply(&tracer.span("close", |_| session.handle_line(CLOSE)))?;
    expect_true(&closed, "consistent")?;
    expect_u64(&closed, "decisions", border_nodes)?;
    expect_u64(&closed, "killed", cliffs.len() as u64)?;
    out.decisions = border_nodes;
    Ok(())
}

impl Workload for Serve {
    fn warmup_ops(&self) -> u64 {
        self.warmup
    }

    fn op(&mut self, index: u64, tracer: &mut Tracer) -> OpResult {
        let mut out = OpResult {
            attempted: 1,
            ..OpResult::default()
        };
        let one;
        let cliffs: &[Cliff] = match self.plan.kind {
            Kind::Storm => &self.storm,
            Kind::Cliff => {
                let side = self.plan.side;
                let node = SplitMix::new(self.seed, index).below((side * side) as u64) as u32;
                one = [Cliff::new(side, node)];
                &one
            }
        };
        if let Err(why) = lifecycle(&mut self.session, &self.plan, cliffs, tracer, &mut out) {
            out.fail(1, why);
            // Leave no instance behind for the next lifecycle's `open`;
            // the reply (an error, if `open` never succeeded) is moot.
            let _ = self.session.handle_line(CLOSE);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bad_replies_are_errors_not_panics() {
        assert!(ok_reply("").unwrap_err().contains("malformed"));
        assert!(ok_reply("{\"ok\":tru").unwrap_err().contains("malformed"));
        assert!(ok_reply("[1,2]").unwrap_err().contains("refused"));
        assert!(ok_reply(r#"{"ok":false,"error":"no open instance"}"#)
            .unwrap_err()
            .contains("refused"));
        assert!(ok_reply(r#"{"ok":"yes"}"#).is_err());
        let fine = ok_reply(r#"{"ok":true,"decisions":4}"#).unwrap();
        assert!(expect_u64(&fine, "decisions", 4).is_ok());
        assert!(expect_u64(&fine, "decisions", 5).is_err());
        assert!(expect_u64(&fine, "missing", 0).is_err());
        assert!(expect_true(&fine, "decisions").is_err());
        assert!(node_list(&fine, "region").is_err());
    }

    #[test]
    fn read_replies_are_checked_against_the_arithmetic_border() {
        // Node 9 of a 4×4 torus: neighbours 5, 8, 10, 13.
        let good = ok_reply(
            r#"{"ok":true,"node":8,"decided":true,"region":[9],"border":[5,8,10,13],"value":5}"#,
        )
        .unwrap();
        assert_eq!(check_read(&good, 4, 9), Ok(5));
        for bad in [
            r#"{"ok":true,"node":8,"decided":false}"#,
            r#"{"ok":true,"decided":true,"region":[9,10],"border":[5,8,10,13],"value":5}"#,
            r#"{"ok":true,"decided":true,"region":[9],"border":[5,8,10],"value":5}"#,
            r#"{"ok":true,"decided":true,"region":[9],"border":[5,8,10,13],"value":9}"#,
            r#"{"ok":true,"decided":true,"region":[9],"border":[5,8,10,13]}"#,
        ] {
            assert!(check_read(&ok_reply(bad).unwrap(), 4, 9).is_err(), "{bad}");
        }
    }

    #[test]
    fn a_refused_lifecycle_fails_once_and_the_next_one_runs() {
        let mut storm = Serve::storm(&Sizes::SMOKE, 1).unwrap();
        let good = storm.op(0, &mut Tracer::off());
        assert_eq!((good.attempted, good.failed), (1, 0), "{:?}", good.failure);
        assert_eq!(good.decisions, 64);
        // Sabotage: an unknown topology makes `open` refuse.
        let open = std::mem::replace(
            &mut storm.plan.open,
            r#"{"cmd":"open","topology":"moebius:16"}"#.to_owned(),
        );
        let bad = storm.op(1, &mut Tracer::off());
        assert_eq!((bad.attempted, bad.failed), (1, 1));
        assert!(bad.failure.unwrap().contains("refused"));
        storm.plan.open = open;
        let again = storm.op(0, &mut Tracer::off());
        assert_eq!(again.fingerprint(), good.fingerprint());
    }
}
