//! The `precipice serve` session: line-delimited JSON driving live
//! agreement instances (maelstrom-style).
//!
//! A [`ServeSession`] is the protocol brain behind the CLI's `serve`
//! subcommand, factored as a library so tests can drive it in-process:
//! one command line in, one response line out, no I/O in here. Each
//! *instance* is an independent [`ShardedCluster`] over its own
//! topology, and all of them are tenants of one resident pool of shard
//! workers (see the [`shard`](crate::shard) module docs): `open` and
//! `close` spawn and join nothing, many instances run concurrently in
//! one process, and a mapped `.pcsr` topology puts a 10⁶-node instance
//! within one process's reach.
//!
//! # Shared topologies
//!
//! Instances share a topology by its identity: a generated family by its
//! canonical [`TopologySpec`], a `pcsr:` file by the [`FileId`] of the
//! file it maps (device, inode, length, mtime). Every `open` of an
//! identity that an instance already uses shares that instance's
//! [`Graph`] and its mapping, and a file that was rebuilt, truncated or
//! rewritten since gets a graph of its own. Besides
//! the graphs in use, the session keeps at most one that no instance
//! uses, the last one a `close` left idle, so a stream of open → close
//! lifecycles maps and parses its topology once. An idle mapped graph
//! keeps its address range but gives its resident pages back
//! ([`Graph::release_pages`]); `shutdown` drops every graph.
//!
//! `open` checks a `.pcsr` file's header and section geometry only, in
//! O(1). A full [`MappedGraph::verify`](precipice_graph::MappedGraph::verify)
//! of a 2²⁰-node torus takes about 60 ms, which would dwarf a lifecycle
//! and the session's setup alike, so `crash` checks the one row the kill
//! reads instead ([`Graph::checked_neighbors`]).
//!
//! # Protocol
//!
//! Requests are single-line JSON objects with a `"cmd"` field;
//! responses always carry `"ok"` (with `"error"` explaining a
//! failure). Commands:
//!
//! | cmd | fields | effect |
//! |-----|--------|--------|
//! | `open` | `topology`, `id?`, `shards?`, `optimized?` | start an instance |
//! | `crash` | `id?`, `node` | kill a node |
//! | `await` | `id?`, `timeout_ms?` | wait for quiescence |
//! | `read` | `id?`, `node` | that node's decision, if any |
//! | `status` | `id?` | instance counters |
//! | `close` | `id?` | shut the instance down, report verdict |
//! | `shutdown` | | close everything and end the session |
//!
//! `topology` is any [`TopologySpec`], the CLI's `--topology` grammar,
//! `pcsr:PATH` (a mapped graph store file) included. There is no seed
//! field: the random families (`geometric`, `er`, `tree`) are built
//! with seed 0. `id` defaults to `"default"` everywhere. Fields a
//! command does not name are ignored. `shards` is the instance's own
//! shard count (the reply echoes it) and may not exceed the topology's
//! node count: the pool grows to the largest count ever opened and
//! keeps those workers.
//!
//! A panic inside one instance's handlers (a decision policy's, in
//! practice) fails that instance only. Its queued events are
//! discharged, so an `await` in progress returns; from then on every
//! command naming it replies `"ok":false` with the panic message, and
//! `close` still removes it. Other instances are unaffected.
//!
//! `await` blocks until the instance's outstanding-event counter reads
//! zero — an exact condition (see the [`shard`](crate::shard) module
//! docs), so it replies at once on an idle or never-crashed instance
//! and as soon as the last handler returns otherwise. After
//! `timeout_ms` (default 30 000) it replies `"quiescent":false` with
//! what is still outstanding: events, plus the worker turns scheduled
//! to handle them.
//!
//! A worked session (`$` = request, `>` = response):
//!
//! ```text
//! $ {"cmd":"open","topology":"torus:4","shards":2}
//! > {"ok":true,"id":"default","nodes":16,"shards":2}
//! $ {"cmd":"crash","node":9}
//! > {"ok":true,"killed":9}
//! $ {"cmd":"await"}
//! > {"ok":true,"quiescent":true,"pending":0}
//! $ {"cmd":"read","node":8}
//! > {"ok":true,"node":8,"decided":true,"region":[9],"border":[5,8,10,13],"value":5}
//! $ {"cmd":"close"}
//! > {"ok":true,"id":"default","decisions":4,"killed":1,"consistent":true}
//! ```

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

use precipice_core::json::Json;
use precipice_core::ProtocolConfig;
use precipice_graph::{FileId, Graph, NodeId, Region, TopologySpec};

use crate::cluster::ShardedCluster;
use crate::gate::live_consistent;
use crate::shard::resident;

/// Default worker shard count for instances that don't specify one.
const DEFAULT_SHARDS: usize = 2;

/// A long-lived serve session: named live instances plus the command
/// dispatcher. See the [module docs](self) for the wire protocol.
#[derive(Debug)]
pub struct ServeSession {
    instances: BTreeMap<String, Hosted>,
    graphs: Graphs,
    default_shards: usize,
    finished: bool,
}

/// An open instance, the topology it was opened on, as `open` spelt it,
/// and the identity of its graph.
#[derive(Debug)]
struct Hosted {
    cluster: ShardedCluster,
    topology: String,
    key: GraphKey,
}

/// What makes two `open`s the same topology.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
enum GraphKey {
    /// A generated family, by its canonical spec.
    Spec(String),
    /// A mapped `.pcsr` file, by the identity of the bytes it maps.
    File(FileId),
}

/// The session's graphs: every one an open instance uses, and at most
/// one that none does.
#[derive(Debug, Default)]
struct Graphs {
    shared: BTreeMap<GraphKey, Shared>,
    /// The graph no instance uses, if one is kept.
    idle: Option<GraphKey>,
}

/// A kept graph.
#[derive(Debug)]
struct Shared {
    graph: Arc<Graph>,
    /// Open instances on `graph`.
    users: usize,
}

impl Graphs {
    /// The graph `spec` names: the one kept under its identity, or a new
    /// build, keyed by the descriptor it was mapped through, so the key
    /// describes the bytes even if the path changed since the lookup.
    /// Nothing is kept until [`acquire`](Self::acquire).
    fn of(&self, spec: &TopologySpec) -> Result<(GraphKey, Arc<Graph>), String> {
        let key = match spec {
            TopologySpec::Pcsr(file) => FileId::of_path(file).ok().map(GraphKey::File),
            _ => Some(GraphKey::Spec(spec.to_string())),
        };
        if let Some(key) = key {
            if let Some(shared) = self.shared.get(&key) {
                return Ok((key, Arc::clone(&shared.graph)));
            }
        }
        let graph = spec.build(0)?;
        let key = graph
            .file_id()
            .map_or_else(|| GraphKey::Spec(spec.to_string()), GraphKey::File);
        Ok((key, Arc::new(graph)))
    }

    /// Counts one more instance on `graph`, keeping it under `key`.
    fn acquire(&mut self, key: &GraphKey, graph: Arc<Graph>) {
        if self.idle.as_ref() == Some(key) {
            self.idle = None;
        }
        self.shared
            .entry(key.clone())
            .or_insert(Shared { graph, users: 0 })
            .users += 1;
    }

    /// Counts one instance fewer on `key`'s graph. A graph left unused
    /// becomes the idle one, in place of the last, and gives its pages
    /// back.
    fn release(&mut self, key: &GraphKey) {
        let shared = self.shared.get_mut(key).expect("a hosted graph is kept");
        shared.users -= 1;
        if shared.users > 0 {
            return;
        }
        // Advisory: a refusal leaves the pages resident, which costs
        // memory, not correctness.
        let _ = shared.graph.release_pages();
        if let Some(last) = self.idle.replace(key.clone()) {
            self.shared.remove(&last);
        }
    }
}

impl Default for ServeSession {
    fn default() -> Self {
        Self::new(DEFAULT_SHARDS)
    }
}

impl ServeSession {
    /// Creates an empty session; `default_shards` applies to `open`
    /// commands that don't pass `shards`.
    pub fn new(default_shards: usize) -> Self {
        ServeSession {
            instances: BTreeMap::new(),
            graphs: Graphs::default(),
            default_shards: default_shards.max(1),
            finished: false,
        }
    }

    /// True once a `shutdown` command was processed: the driver should
    /// stop reading and exit cleanly.
    pub fn finished(&self) -> bool {
        self.finished
    }

    /// Handles one request line, returning the response line (no
    /// trailing newline).
    pub fn handle_line(&mut self, line: &str) -> String {
        self.handle(line).unwrap_or_else(err).to_line()
    }

    fn handle(&mut self, line: &str) -> Result<Json, String> {
        let request = Json::parse(line.trim()).map_err(|e| e.to_string())?;
        let cmd = request
            .get("cmd")
            .and_then(Json::as_str)
            .ok_or("missing \"cmd\"")?
            .to_owned();
        match cmd.as_str() {
            "open" => self.open(&request),
            "crash" => self.crash(&request),
            "await" => self.await_quiet(&request),
            "read" => self.read(&request),
            "status" => self.status(&request),
            "close" => self.close(&request),
            "shutdown" => self.shutdown_all(),
            other => Err(format!("unknown cmd {other:?}")),
        }
    }

    fn open(&mut self, request: &Json) -> Result<Json, String> {
        let id = instance_id(request);
        if self.instances.contains_key(&id) {
            return Err(format!("instance {id:?} already open"));
        }
        let spec = request
            .get("topology")
            .and_then(Json::as_str)
            .ok_or("open needs a \"topology\"")?;
        let (key, graph) = self.graphs.of(&spec.parse::<TopologySpec>()?)?;
        let shards = match request.get("shards") {
            Some(v) => v.as_u64().ok_or("\"shards\" must be a positive integer")? as usize,
            None => self.default_shards,
        };
        if shards == 0 {
            return Err("\"shards\" must be a positive integer".into());
        }
        // Checked before the pool grows: workers, once spawned, stay.
        if shards > graph.len() {
            return Err(format!(
                "\"shards\" is {shards}, but the topology has only {} nodes",
                graph.len()
            ));
        }
        let config = match request.get("optimized").and_then(Json::as_bool) {
            Some(true) => ProtocolConfig::optimized(),
            _ => ProtocolConfig::default(),
        };
        let factory = |_me| precipice_core::NodeIdValuePolicy;
        let cluster = ShardedCluster::launch(
            resident(),
            Arc::clone(&graph),
            config,
            shards,
            factory,
            None,
        )
        .map_err(|e| format!("cannot start {shards} shard workers: {e}"))?;
        let nodes = cluster.graph().len();
        let shards = cluster.shards();
        let topology = spec.to_owned();
        self.graphs.acquire(&key, graph);
        self.instances.insert(
            id.clone(),
            Hosted {
                cluster,
                topology,
                key,
            },
        );
        Ok(Json::obj([
            ("ok", Json::Bool(true)),
            ("id", Json::from(id)),
            ("nodes", Json::from(nodes)),
            ("shards", Json::from(shards)),
        ]))
    }

    /// The instance `request` names, unless it has failed.
    fn instance(&mut self, request: &Json) -> Result<&mut Hosted, String> {
        let id = instance_id(request);
        let hosted = self
            .instances
            .get_mut(&id)
            .ok_or_else(|| format!("no open instance {id:?}"))?;
        unfailed(&id, &hosted.cluster)?;
        Ok(hosted)
    }

    fn crash(&mut self, request: &Json) -> Result<Json, String> {
        let node = node_field(request)?;
        let Hosted {
            cluster, topology, ..
        } = self.instance(request)?;
        if !cluster.graph().contains(node) {
            return Err(format!("{node} is not in the topology"));
        }
        // The kill reads `node`'s row on this thread. A mapped file's rows
        // are not all checked at `open`, which stays O(1); an unsound one
        // is refused here instead of panicking the session.
        if cluster.graph().checked_neighbors(node).is_none() {
            return Err(format!("{node}'s adjacency row in {topology} is corrupt"));
        }
        cluster.kill(node);
        Ok(Json::obj([
            ("ok", Json::Bool(true)),
            ("killed", Json::from(node.0 as u64)),
        ]))
    }

    fn await_quiet(&mut self, request: &Json) -> Result<Json, String> {
        let timeout = duration_field(request, "timeout_ms", 30_000)?;
        let id = instance_id(request);
        let cluster = &self.instance(request)?.cluster;
        let quiescent = cluster.await_quiescence(timeout);
        // A failure during the wait is what ended it.
        unfailed(&id, cluster)?;
        let pending = cluster.pending();
        Ok(Json::obj([
            ("ok", Json::Bool(true)),
            ("quiescent", Json::Bool(quiescent)),
            ("pending", Json::from(pending)),
        ]))
    }

    fn read(&mut self, request: &Json) -> Result<Json, String> {
        let node = node_field(request)?;
        let cluster = &self.instance(request)?.cluster;
        if !cluster.graph().contains(node) {
            return Err(format!("{node} is not in the topology"));
        }
        let mut fields = vec![
            ("ok", Json::Bool(true)),
            ("node", Json::from(node.0 as u64)),
        ];
        if cluster.killed().contains(&node) {
            fields.push(("crashed", Json::Bool(true)));
            fields.push(("decided", Json::Bool(false)));
        } else if let Some((view, value)) = cluster.decision_of(node) {
            fields.push(("decided", Json::Bool(true)));
            fields.push(("region", region_json(view.region())));
            fields.push(("border", region_json(view.border())));
            fields.push(("value", Json::from(value.0 as u64)));
        } else {
            fields.push(("decided", Json::Bool(false)));
        }
        Ok(Json::obj(fields))
    }

    fn status(&mut self, request: &Json) -> Result<Json, String> {
        let id = instance_id(request);
        let cluster = &self.instance(request)?.cluster;
        let killed: Vec<Json> = cluster
            .killed()
            .iter()
            .map(|n| Json::from(n.0 as u64))
            .collect();
        Ok(Json::obj([
            ("ok", Json::Bool(true)),
            ("id", Json::from(id)),
            ("nodes", Json::from(cluster.graph().len())),
            ("shards", Json::from(cluster.shards())),
            ("activated", Json::from(cluster.activated())),
            ("pending", Json::from(cluster.pending())),
            ("decisions", Json::from(cluster.decision_count())),
            ("killed", Json::Arr(killed)),
            ("spilled", Json::from(cluster.spilled())),
        ]))
    }

    fn close(&mut self, request: &Json) -> Result<Json, String> {
        let id = instance_id(request);
        let hosted = self
            .instances
            .remove(&id)
            .ok_or_else(|| format!("no open instance {id:?}"))?;
        let report = close_report(id, hosted.cluster);
        self.graphs.release(&hosted.key);
        report
    }

    fn shutdown_all(&mut self) -> Result<Json, String> {
        let mut closed = Vec::new();
        let mut all_consistent = true;
        for (id, hosted) in std::mem::take(&mut self.instances) {
            let report = close_report(id.clone(), hosted.cluster);
            all_consistent &=
                report.is_ok_and(|r| r.get("consistent").and_then(Json::as_bool) == Some(true));
            closed.push(Json::from(id));
        }
        self.graphs = Graphs::default();
        self.finished = true;
        Ok(Json::obj([
            ("ok", Json::Bool(true)),
            ("closed", Json::Arr(closed)),
            ("consistent", Json::Bool(all_consistent)),
        ]))
    }
}

/// `Err` with the panic message if a handler of `cluster` panicked.
fn unfailed(id: &str, cluster: &ShardedCluster) -> Result<(), String> {
    cluster
        .failure()
        .map_or(Ok(()), |panic| Err(failed(id, panic)))
}

fn failed(id: &str, panic: &str) -> String {
    format!("instance {id:?} failed: {panic}")
}

/// Shuts `cluster` down and summarizes it: decision count, kill count,
/// and the live agreement verdict (every decision internally consistent
/// and pairwise in agreement — the full CD1–CD7 oracle is the runtime
/// checker's job). A failed instance is shut down all the same and
/// reported as the error it died of.
fn close_report(id: String, cluster: ShardedCluster) -> Result<Json, String> {
    let graph = Arc::clone(cluster.graph());
    let killed = cluster.killed().len();
    let (report, failure) = cluster.retire();
    if let Some(panic) = failure {
        return Err(failed(&id, &panic));
    }
    let consistent = live_consistent(&report, &graph);
    Ok(Json::obj([
        ("ok", Json::Bool(true)),
        ("id", Json::from(id)),
        ("decisions", Json::from(report.decisions.len())),
        ("killed", Json::from(killed)),
        ("consistent", Json::Bool(consistent)),
    ]))
}

fn err(message: String) -> Json {
    Json::obj([("ok", Json::Bool(false)), ("error", Json::from(message))])
}

fn instance_id(request: &Json) -> String {
    request
        .get("id")
        .and_then(Json::as_str)
        .unwrap_or("default")
        .to_owned()
}

fn node_field(request: &Json) -> Result<NodeId, String> {
    request
        .get("node")
        .and_then(Json::as_u64)
        .filter(|&n| n <= u32::MAX as u64)
        .map(|n| NodeId(n as u32))
        .ok_or_else(|| "missing or invalid \"node\"".into())
}

fn duration_field(request: &Json, key: &str, default_ms: u64) -> Result<Duration, String> {
    match request.get(key) {
        None => Ok(Duration::from_millis(default_ms)),
        Some(v) => v
            .as_u64()
            .map(Duration::from_millis)
            .ok_or_else(|| format!("\"{key}\" must be a non-negative integer (milliseconds)")),
    }
}

fn region_json(region: &Region) -> Json {
    Json::Arr(region.iter().map(|n| Json::from(n.0 as u64)).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use precipice_graph::{path, ring, torus, GridDims};

    fn ok(response: &str) -> Json {
        let v = Json::parse(response).expect("response parses");
        assert_eq!(
            v.get("ok").and_then(Json::as_bool),
            Some(true),
            "expected ok: {response}"
        );
        v
    }

    fn fail(response: &str) -> String {
        let v = Json::parse(response).expect("response parses");
        assert_eq!(v.get("ok").and_then(Json::as_bool), Some(false));
        v.get("error").and_then(Json::as_str).unwrap().to_owned()
    }

    /// Hosts a cluster built by the test as instance `id`.
    fn host(s: &mut ServeSession, id: &str, cluster: ShardedCluster) {
        let topology = String::from("a test's own graph");
        let key = GraphKey::Spec(format!("{topology} {id}"));
        s.graphs.acquire(&key, Arc::clone(cluster.graph()));
        let hosted = Hosted {
            cluster,
            topology,
            key,
        };
        s.instances.insert(id.into(), hosted);
    }

    #[test]
    fn full_round_trip_crash_agree_read() {
        let mut s = ServeSession::default();
        let opened = ok(&s.handle_line(r#"{"cmd":"open","topology":"torus:4","shards":2}"#));
        assert_eq!(opened.get("nodes").and_then(Json::as_u64), Some(16));
        ok(&s.handle_line(r#"{"cmd":"crash","node":9}"#));
        let waited = ok(&s.handle_line(r#"{"cmd":"await","timeout_ms":20000}"#));
        assert_eq!(waited.get("quiescent").and_then(Json::as_bool), Some(true));
        let read = ok(&s.handle_line(r#"{"cmd":"read","node":8}"#));
        assert_eq!(read.get("decided").and_then(Json::as_bool), Some(true));
        assert_eq!(
            read.get("region")
                .and_then(Json::as_array)
                .map(<[Json]>::len),
            Some(1)
        );
        let closed = ok(&s.handle_line(r#"{"cmd":"close"}"#));
        assert_eq!(closed.get("consistent").and_then(Json::as_bool), Some(true));
        assert_eq!(closed.get("decisions").and_then(Json::as_u64), Some(4));
        assert!(!s.finished());
        ok(&s.handle_line(r#"{"cmd":"shutdown"}"#));
        assert!(s.finished());
    }

    #[test]
    fn many_concurrent_instances() {
        let mut s = ServeSession::new(1);
        for i in 0..4 {
            ok(&s.handle_line(&format!(
                r#"{{"cmd":"open","id":"i{i}","topology":"path:5"}}"#
            )));
            ok(&s.handle_line(&format!(r#"{{"cmd":"crash","id":"i{i}","node":2}}"#)));
        }
        for i in 0..4 {
            let waited = ok(&s.handle_line(&format!(
                r#"{{"cmd":"await","id":"i{i}","timeout_ms":20000}}"#
            )));
            assert_eq!(waited.get("quiescent").and_then(Json::as_bool), Some(true));
        }
        let down = ok(&s.handle_line(r#"{"cmd":"shutdown"}"#));
        assert_eq!(down.get("consistent").and_then(Json::as_bool), Some(true));
        assert_eq!(
            down.get("closed")
                .and_then(Json::as_array)
                .map(<[Json]>::len),
            Some(4)
        );
    }

    #[test]
    fn errors_are_reported_not_fatal() {
        let mut s = ServeSession::default();
        assert!(fail(&s.handle_line("not json")).contains("json error"));
        assert!(fail(&s.handle_line(r#"{"nope":1}"#)).contains("cmd"));
        assert!(fail(&s.handle_line(r#"{"cmd":"warp"}"#)).contains("unknown cmd"));
        assert!(fail(&s.handle_line(r#"{"cmd":"crash","node":0}"#)).contains("no open instance"));
        ok(&s.handle_line(r#"{"cmd":"open","topology":"path:3"}"#));
        assert!(
            fail(&s.handle_line(r#"{"cmd":"open","topology":"path:3"}"#)).contains("already open")
        );
        assert!(fail(&s.handle_line(r#"{"cmd":"crash","node":99}"#)).contains("not in"));
        assert!(
            fail(&s.handle_line(r#"{"cmd":"open","id":"x","topology":"moebius:3"}"#))
                .contains("unknown topology")
        );
        assert!(
            fail(&s.handle_line(r#"{"cmd":"open","id":"x","topology":"torus"}"#))
                .contains("malformed")
        );
        // Refused before a million workers are asked of the pool.
        assert!(fail(
            &s.handle_line(r#"{"cmd":"open","id":"x","topology":"path:3","shards":1000000}"#)
        )
        .contains("only 3 nodes"));
        // Sizes below a generator's minimum are refused, and every open
        // instance keeps answering.
        ok(&s.handle_line(r#"{"cmd":"open","id":"a","topology":"ring:5"}"#));
        for bad in "ring:2 torus:2 grid:0x3 grid:0 path:0 star:1".split(' ') {
            let line = format!(r#"{{"cmd":"open","id":"x","topology":"{bad}"}}"#);
            assert!(fail(&s.handle_line(&line)).contains("minimum"), "{bad}");
        }
        // So are sizes past the u32 node id space or the u32 CSR offsets,
        // before any graph is allocated: once they wrapped, panicked in
        // the generator, or aborted on a 16 GiB allocation, and took the
        // whole session down.
        let huge = "torus:4294967296 torus:65536 grid:4294967296x4294967296 \
                    torus:65535 torus:32768 ring:3000000000";
        for bad in huge.split(' ') {
            let line = format!(r#"{{"cmd":"open","id":"x","topology":"{bad}"}}"#);
            assert!(fail(&s.handle_line(&line)).contains(bad), "{bad}");
        }
        // So is a line nested 60 000 deep, which once overflowed the
        // parser's stack and aborted the process.
        let deep = "[".repeat(60_000) + &"]".repeat(60_000);
        assert!(fail(&s.handle_line(&deep)).contains("nested deeper"));
        ok(&s.handle_line(r#"{"cmd":"crash","id":"a","node":1}"#));
        ok(&s.handle_line(r#"{"cmd":"await","id":"a","timeout_ms":20000}"#));
        // The session is still usable.
        ok(&s.handle_line(r#"{"cmd":"status"}"#));
        ok(&s.handle_line(r#"{"cmd":"shutdown"}"#));
    }

    #[test]
    fn read_of_crashed_and_undecided_nodes() {
        let mut s = ServeSession::default();
        ok(&s.handle_line(r#"{"cmd":"open","topology":"path:5"}"#));
        ok(&s.handle_line(r#"{"cmd":"crash","node":2}"#));
        ok(&s.handle_line(r#"{"cmd":"await","timeout_ms":20000}"#));
        let dead = ok(&s.handle_line(r#"{"cmd":"read","node":2}"#));
        assert_eq!(dead.get("crashed").and_then(Json::as_bool), Some(true));
        let far = ok(&s.handle_line(r#"{"cmd":"read","node":4}"#));
        assert_eq!(far.get("decided").and_then(Json::as_bool), Some(false));
        ok(&s.handle_line(r#"{"cmd":"shutdown"}"#));
    }

    #[test]
    fn await_is_exact_idle_busy_and_legacy_field() {
        use crate::shard::{assert_does_not_sleep, held_cluster};

        let mut s = ServeSession::default();
        let (cluster, entered, release) = held_cluster(torus(GridDims::square(4)), 2);
        host(&mut s, "default", cluster);

        // Never crashed: quiescent, and no window to sit out.
        assert_does_not_sleep("await on an idle instance", || {
            let idle = ok(&s.handle_line(r#"{"cmd":"await"}"#));
            assert_eq!(idle.get("quiescent").and_then(Json::as_bool), Some(true));
        });

        // A handler held inside the policy factory: the await times
        // out and reports what is still outstanding.
        ok(&s.handle_line(r#"{"cmd":"crash","node":9}"#));
        entered.recv().expect("a handler is running");
        let busy = ok(&s.handle_line(r#"{"cmd":"await","timeout_ms":0}"#));
        assert_eq!(busy.get("quiescent").and_then(Json::as_bool), Some(false));
        assert!(busy.get("pending").and_then(Json::as_u64) > Some(0));

        // The protocol's retired quiet-window field is just another
        // unknown field, whatever it holds (spelt in two halves so the
        // name stays greppably gone from the tree).
        drop(release);
        let legacy = format!(
            r#"{{"cmd":"await","{}_ms":"soon","timeout_ms":20000}}"#,
            "quiet"
        );
        let done = ok(&s.handle_line(&legacy));
        assert_eq!(done.get("quiescent").and_then(Json::as_bool), Some(true));
        assert_eq!(done.get("pending").and_then(Json::as_u64), Some(0));
        let status = ok(&s.handle_line(r#"{"cmd":"status"}"#));
        assert_eq!(status.get("decisions").and_then(Json::as_u64), Some(4));
        ok(&s.handle_line(r#"{"cmd":"shutdown"}"#));
    }

    #[test]
    fn a_failed_instance_says_why_and_the_others_carry_on() {
        let mut s = ServeSession::new(1);
        let exploding = ShardedCluster::start_with(
            Arc::new(torus(GridDims::square(4))),
            ProtocolConfig::default(),
            1,
            |me| {
                assert!(me != NodeId(10), "policy exploded");
                precipice_core::NodeIdValuePolicy
            },
        );
        host(&mut s, "a", exploding);
        ok(&s.handle_line(r#"{"cmd":"open","id":"b","topology":"torus:4"}"#));
        ok(&s.handle_line(r#"{"cmd":"crash","id":"a","node":9}"#));
        ok(&s.handle_line(r#"{"cmd":"crash","id":"b","node":9}"#));

        // The panic ends the wait; nothing is left to time out on.
        let why = fail(&s.handle_line(r#"{"cmd":"await","id":"a","timeout_ms":20000}"#));
        assert!(why.contains(r#"instance "a" failed"#), "{why}");
        assert!(why.contains("policy exploded"), "{why}");
        for cmd in ["read", "status", "crash"] {
            let line = format!(r#"{{"cmd":"{cmd}","id":"a","node":8}}"#);
            assert!(fail(&s.handle_line(&line)).contains("policy exploded"));
        }

        // Same worker, other tenant: untouched.
        let waited = ok(&s.handle_line(r#"{"cmd":"await","id":"b","timeout_ms":20000}"#));
        assert_eq!(waited.get("quiescent").and_then(Json::as_bool), Some(true));
        let read = ok(&s.handle_line(r#"{"cmd":"read","id":"b","node":10}"#));
        assert_eq!(read.get("decided").and_then(Json::as_bool), Some(true));

        assert!(fail(&s.handle_line(r#"{"cmd":"close","id":"a"}"#)).contains("policy exploded"));
        assert!(fail(&s.handle_line(r#"{"cmd":"status","id":"a"}"#)).contains("no open instance"));
        let closed = ok(&s.handle_line(r#"{"cmd":"close","id":"b"}"#));
        assert_eq!(closed.get("consistent").and_then(Json::as_bool), Some(true));
        assert_eq!(closed.get("decisions").and_then(Json::as_u64), Some(4));
        ok(&s.handle_line(r#"{"cmd":"shutdown"}"#));
    }

    #[test]
    fn shutdown_is_not_consistent_over_a_failed_instance() {
        let mut s = ServeSession::new(1);
        let exploding = ShardedCluster::start_with(
            Arc::new(path(3)),
            ProtocolConfig::default(),
            1,
            |_me| -> precipice_core::NodeIdValuePolicy { panic!("no policy today") },
        );
        host(&mut s, "a", exploding);
        ok(&s.handle_line(r#"{"cmd":"open","id":"b","topology":"path:3"}"#));
        // Not awaited: the panic happens while `shutdown` drains.
        s.instances
            .get_mut("a")
            .expect("inserted")
            .cluster
            .kill(NodeId(1));
        let down = ok(&s.handle_line(r#"{"cmd":"shutdown"}"#));
        assert_eq!(down.get("consistent").and_then(Json::as_bool), Some(false));
        assert_eq!(
            down.get("closed")
                .and_then(Json::as_array)
                .map(<[Json]>::len),
            Some(2)
        );
    }

    /// A mapped `torus:32` whose offset 513 is zeroed opens (open checks
    /// the endpoints only), but node 512's row is an inverted range.
    /// Crashing 512 reads that row on the session's thread: refused by
    /// name. Crashing its neighbour 480 reads it first in 512's handler:
    /// that instance fails through the caught panic, and the session and
    /// its other instances carry on.
    #[test]
    fn a_corrupt_row_is_refused_or_fails_only_its_instance() {
        let dir = std::env::temp_dir().join(format!("precipice-serve-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let file = dir.join("torus32-bad-row.pcsr");
        torus(GridDims::square(32)).write_pcsr(&file).unwrap();
        let mut bytes = std::fs::read(&file).unwrap();
        let section = u64::from_le_bytes(bytes[40..48].try_into().unwrap()) as usize;
        bytes[section + 4 * 513..section + 4 * 514].fill(0);
        std::fs::write(&file, &bytes).unwrap();

        let mut s = ServeSession::new(1);
        let topology = format!("pcsr:{}", file.display());
        for id in ["a", "b"] {
            let line = format!(r#"{{"cmd":"open","id":"{id}","topology":"{topology}"}}"#);
            ok(&s.handle_line(&line));
        }
        let why = fail(&s.handle_line(r#"{"cmd":"crash","id":"a","node":512}"#));
        assert!(why.contains("n512"), "{why}");
        assert!(why.contains("torus32-bad-row.pcsr"), "{why}");
        let status = ok(&s.handle_line(r#"{"cmd":"status","id":"a"}"#));
        assert_eq!(
            status
                .get("killed")
                .and_then(Json::as_array)
                .map(<[Json]>::len),
            Some(0)
        );

        ok(&s.handle_line(r#"{"cmd":"crash","id":"b","node":480}"#));
        let why = fail(&s.handle_line(r#"{"cmd":"await","id":"b","timeout_ms":20000}"#));
        assert!(why.contains(r#"instance "b" failed"#), "{why}");
        // Instance a still agrees on a cliff away from the bad row.
        ok(&s.handle_line(r#"{"cmd":"crash","id":"a","node":100}"#));
        let waited = ok(&s.handle_line(r#"{"cmd":"await","id":"a","timeout_ms":20000}"#));
        assert_eq!(waited.get("quiescent").and_then(Json::as_bool), Some(true));
        let closed = ok(&s.handle_line(r#"{"cmd":"close","id":"a"}"#));
        assert_eq!(closed.get("consistent").and_then(Json::as_bool), Some(true));
        assert_eq!(closed.get("decisions").and_then(Json::as_u64), Some(4));
        fail(&s.handle_line(r#"{"cmd":"close","id":"b"}"#));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A scratch directory of this test process's own.
    fn scratch(name: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("precipice-serve-{name}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn open(s: &mut ServeSession, id: &str, topology: &str) {
        ok(&s.handle_line(&format!(
            r#"{{"cmd":"open","id":"{id}","topology":"{topology}"}}"#
        )));
    }

    /// Crashes `node` in instance `id`, awaits it and reads the decision
    /// of its neighbour `reader`.
    fn agree(s: &mut ServeSession, id: &str, node: u32, reader: u32) {
        ok(&s.handle_line(&format!(r#"{{"cmd":"crash","id":"{id}","node":{node}}}"#)));
        let line = format!(r#"{{"cmd":"await","id":"{id}","timeout_ms":20000}}"#);
        let waited = ok(&s.handle_line(&line));
        assert_eq!(waited.get("quiescent").and_then(Json::as_bool), Some(true));
        let line = format!(r#"{{"cmd":"read","id":"{id}","node":{reader}}}"#);
        let read = ok(&s.handle_line(&line));
        assert_eq!(read.get("decided").and_then(Json::as_bool), Some(true));
    }

    fn close_consistent(s: &mut ServeSession, id: &str) {
        let closed = ok(&s.handle_line(&format!(r#"{{"cmd":"close","id":"{id}"}}"#)));
        assert_eq!(closed.get("consistent").and_then(Json::as_bool), Some(true));
    }

    fn graph_of<'a>(s: &'a ServeSession, id: &str) -> &'a Arc<Graph> {
        s.instances[id].cluster.graph()
    }

    #[test]
    fn opens_of_one_topology_share_one_graph() {
        let file = scratch("share").join("torus8.pcsr");
        torus(GridDims::square(8)).write_pcsr(&file).unwrap();
        let pcsr = format!("pcsr:{}", file.display());
        let mut s = ServeSession::new(1);
        for (id, topology) in [
            ("a", &*pcsr),
            ("b", &pcsr),
            ("c", "torus:8"),
            ("d", "torus:8"),
        ] {
            open(&mut s, id, topology);
        }
        assert!(Arc::ptr_eq(graph_of(&s, "a"), graph_of(&s, "b")));
        assert!(Arc::ptr_eq(graph_of(&s, "c"), graph_of(&s, "d")));
        assert!(!Arc::ptr_eq(graph_of(&s, "a"), graph_of(&s, "c")));
        assert!(graph_of(&s, "a").is_mapped());
        for id in ["a", "b", "c", "d"] {
            agree(&mut s, id, 9, 8);
        }
        let down = ok(&s.handle_line(r#"{"cmd":"shutdown"}"#));
        assert_eq!(down.get("consistent").and_then(Json::as_bool), Some(true));
        assert!(s.graphs.shared.is_empty());
        let _ = std::fs::remove_dir_all(file.parent().expect("a scratch dir"));
    }

    /// `graph build` renames a new file over the old one: the next open
    /// maps the new file, and the open instance keeps the old one.
    #[test]
    fn a_rebuilt_file_gets_a_graph_of_its_own() {
        let file = scratch("rebuild").join("torus8.pcsr");
        let spec: TopologySpec = "torus:8".parse().unwrap();
        spec.write_pcsr(&file, 0).unwrap();
        let pcsr = format!("pcsr:{}", file.display());
        let mut s = ServeSession::new(2);
        open(&mut s, "a", &pcsr);
        agree(&mut s, "a", 9, 8);
        spec.write_pcsr(&file, 0).unwrap();
        open(&mut s, "b", &pcsr);
        assert!(!Arc::ptr_eq(graph_of(&s, "a"), graph_of(&s, "b")));
        assert_ne!(graph_of(&s, "a").file_id(), graph_of(&s, "b").file_id());
        agree(&mut s, "b", 9, 8);
        agree(&mut s, "a", 36, 37);
        close_consistent(&mut s, "a");
        close_consistent(&mut s, "b");
        let _ = std::fs::remove_dir_all(file.parent().expect("a scratch dir"));
    }

    #[test]
    fn closed_instances_leave_at_most_one_idle_graph() {
        let file = scratch("idle").join("ring5.pcsr");
        ring(5).write_pcsr(&file).unwrap();
        let pcsr = format!("pcsr:{}", file.display());
        let mut s = ServeSession::new(1);
        let topologies = [
            ("a", "torus:4"),
            ("b", "path:5"),
            ("c", &*pcsr),
            ("d", "path:5"),
        ];
        for (id, topology) in topologies {
            open(&mut s, id, topology);
        }
        assert_eq!(s.graphs.shared.len(), 3);
        for (id, _) in topologies {
            agree(&mut s, id, 2, 1);
            close_consistent(&mut s, id);
            assert!(s.graphs.shared.values().filter(|g| g.users == 0).count() <= 1);
        }
        // What the last close left idle is kept for the next open.
        assert_eq!(s.graphs.shared.len(), 1);
        assert_eq!(s.graphs.idle, Some(GraphKey::Spec("path:5".into())));
        let kept = Arc::clone(&s.graphs.shared.values().next().unwrap().graph);
        open(&mut s, "e", "path:5");
        assert!(Arc::ptr_eq(graph_of(&s, "e"), &kept));
        assert_eq!(s.graphs.idle, None);
        ok(&s.handle_line(r#"{"cmd":"shutdown"}"#));
        assert!(s.graphs.shared.is_empty());
        let _ = std::fs::remove_dir_all(file.parent().expect("a scratch dir"));
    }

    /// A close that leaves a mapped graph idle gives its pages back; the
    /// next open of the file shares it, and every row reads as written.
    #[test]
    fn a_released_mapping_reads_every_row() {
        let file = scratch("release").join("torus32.pcsr");
        let owned = torus(GridDims::square(32));
        owned.write_pcsr(&file).unwrap();
        let pcsr = format!("pcsr:{}", file.display());
        let mut s = ServeSession::new(1);
        open(&mut s, "a", &pcsr);
        let mapped = Arc::clone(graph_of(&s, "a"));
        agree(&mut s, "a", 100, 101);
        close_consistent(&mut s, "a");
        for p in owned.nodes() {
            assert_eq!(mapped.checked_neighbors(p), Some(owned.neighbors(p)));
        }
        mapped.release_pages().unwrap();
        assert_eq!(*mapped, owned);
        open(&mut s, "b", &pcsr);
        assert!(Arc::ptr_eq(graph_of(&s, "b"), &mapped));
        agree(&mut s, "b", 100, 101);
        close_consistent(&mut s, "b");
        let _ = std::fs::remove_dir_all(file.parent().expect("a scratch dir"));
    }

    #[test]
    fn a_missing_file_is_named_as_before() {
        let file = scratch("missing").join("absent.pcsr");
        let mut s = ServeSession::default();
        let line = format!(r#"{{"cmd":"open","topology":"pcsr:{}"}}"#, file.display());
        let why = std::fs::metadata(&file).unwrap_err();
        assert_eq!(
            fail(&s.handle_line(&line)),
            format!("cannot open {file:?}: i/o error: {why}")
        );
        assert!(s.graphs.shared.is_empty());
        let _ = std::fs::remove_dir_all(file.parent().expect("a scratch dir"));
    }

    #[test]
    fn status_reports_lazy_footprint() {
        let mut s = ServeSession::default();
        ok(&s.handle_line(r#"{"cmd":"open","topology":"torus:16","shards":3}"#));
        ok(&s.handle_line(r#"{"cmd":"crash","node":100}"#));
        ok(&s.handle_line(r#"{"cmd":"await","timeout_ms":20000}"#));
        let status = ok(&s.handle_line(r#"{"cmd":"status"}"#));
        assert_eq!(status.get("nodes").and_then(Json::as_u64), Some(256));
        assert_eq!(status.get("activated").and_then(Json::as_u64), Some(4));
        assert_eq!(status.get("decisions").and_then(Json::as_u64), Some(4));
        ok(&s.handle_line(r#"{"cmd":"shutdown"}"#));
    }
}
