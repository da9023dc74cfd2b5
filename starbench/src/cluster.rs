//! The TCP deployment under test: three node processes on localhost.
//!
//! Each node is this benchmark's own executable started in `node` mode,
//! which serves through `star_serverd::NodeServer::start_on` exactly as the
//! `star-serverd` binary does; only address discovery differs. A node binds
//! a kernel-assigned port, prints it, reads the cluster's bootstrap text
//! (every node's real address) from stdin, starts serving and prints
//! `ready`. Its stdin stays open as a control pipe: the line `rusage` asks
//! for its context-switch counts, and end-of-file — the benchmark exiting or
//! dying — makes it exit, so no node outlives the benchmark.

use crate::procfs::{self, Switches};
use star_client::Client;
use star_proto::{Request, Response, Role};
use star_serverd::{Bootstrap, NodeServer};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpListener;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, Command, ExitCode, Stdio};
use std::sync::mpsc::{self, Receiver};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long a node may take to report its address or finish loading.
const BOOT_TIMEOUT: Duration = Duration::from_secs(60);
/// How long a node may take to exit after a `Shutdown` request.
const EXIT_TIMEOUT: Duration = Duration::from_secs(10);

/// Entry point of `starbench node --id <n>`.
pub fn node_main(id: usize) -> ExitCode {
    match serve_node(id) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("starbench node {id}: {e}");
            ExitCode::FAILURE
        }
    }
}

fn serve_node(id: usize) -> Result<(), String> {
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("cannot bind: {e}"))?;
    let addr = listener.local_addr().map_err(|e| format!("no local address: {e}"))?;
    say(&format!("addr {addr}"))?;
    let mut text = String::new();
    let mut lines = std::io::stdin().lock().lines();
    loop {
        match lines.next() {
            Some(Ok(line)) if line == "end" => break,
            Some(Ok(line)) => {
                text.push_str(&line);
                text.push('\n');
            }
            Some(Err(e)) => return Err(format!("reading the bootstrap: {e}")),
            None => return Err("stdin closed before the bootstrap ended".to_string()),
        }
    }
    drop(lines);
    let boot = Bootstrap::parse(&text).map_err(|e| format!("bootstrap: {e}"))?;
    let server = NodeServer::start_on(listener, &boot, id).map_err(|e| format!("start: {e}"))?;
    eprintln!("starbench node {id}: serving on {}", server.local_addr());
    say("ready")?;
    // The control pipe. The thread ends the process on end-of-file; it is
    // never joined because the process exits from it or from `main`.
    std::thread::spawn(move || {
        for line in std::io::stdin().lines() {
            match line.as_deref() {
                Ok("rusage") => {
                    let reply = match procfs::self_switches() {
                        Ok(switches) => switches.to_line(),
                        Err(e) => format!("error {e}"),
                    };
                    if say(&reply).is_err() {
                        break;
                    }
                }
                Ok(other) => eprintln!("starbench node {id}: unknown control line `{other}`"),
                Err(_) => break,
            }
        }
        eprintln!("starbench node {id}: control pipe closed, exiting");
        std::process::exit(0);
    });
    server.wait();
    eprintln!("starbench node {id}: shut down");
    Ok(())
}

/// Prints one control line on stdout and flushes it.
fn say(line: &str) -> Result<(), String> {
    let mut out = std::io::stdout().lock();
    writeln!(out, "{line}").and_then(|()| out.flush()).map_err(|e| format!("stdout: {e}"))
}

/// One node process and its control pipe; dropping it kills and reaps the
/// process.
struct NodeProcess {
    child: Child,
    stdin: Option<ChildStdin>,
    lines: Receiver<String>,
    reader: Option<JoinHandle<()>>,
    addr: String,
}

impl NodeProcess {
    fn spawn(exe: &Path, id: usize, log: &Path) -> Result<NodeProcess, String> {
        let log_file = std::fs::File::create(log)
            .map_err(|e| format!("cannot create {}: {e}", log.display()))?;
        let mut child = Command::new(exe)
            .args(["node", "--id", &id.to_string()])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::from(log_file))
            .spawn()
            .map_err(|e| format!("cannot spawn node {id}: {e}"))?;
        let stdin = child.stdin.take();
        let stdout = child.stdout.take().expect("stdout is piped");
        let (tx, lines) = mpsc::channel();
        let reader = std::thread::spawn(move || {
            for line in BufReader::new(stdout).lines().map_while(Result::ok) {
                if tx.send(line).is_err() {
                    break;
                }
            }
        });
        let mut node =
            NodeProcess { child, stdin, lines, reader: Some(reader), addr: String::new() };
        let line = node.expect_line(id, BOOT_TIMEOUT)?;
        node.addr = line
            .strip_prefix("addr ")
            .ok_or(format!("node {id}: expected its address, got `{line}`"))?
            .to_string();
        Ok(node)
    }

    fn pid(&self) -> u32 {
        self.child.id()
    }

    fn send(&mut self, id: usize, text: &str) -> Result<(), String> {
        let stdin = self.stdin.as_mut().ok_or(format!("node {id}: control pipe closed"))?;
        stdin
            .write_all(text.as_bytes())
            .and_then(|()| stdin.flush())
            .map_err(|e| format!("node {id}: control pipe: {e}"))
    }

    fn expect_line(&mut self, id: usize, timeout: Duration) -> Result<String, String> {
        self.lines
            .recv_timeout(timeout)
            .map_err(|_| format!("node {id}: no control line within {timeout:?} (see its log)"))
    }

    /// Waits up to `timeout` for the process to exit on its own.
    fn wait_exit(&mut self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        while Instant::now() < deadline {
            if let Ok(Some(_)) = self.child.try_wait() {
                return true;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        false
    }

    /// Kills the process if it still runs and reaps it and its reader.
    fn reap(&mut self) {
        self.stdin = None;
        if !matches!(self.child.try_wait(), Ok(Some(_))) {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
        if let Some(reader) = self.reader.take() {
            let _ = reader.join();
        }
    }
}

impl Drop for NodeProcess {
    fn drop(&mut self) {
        self.reap();
    }
}

/// A booted three-node cluster. Dropping it kills and reaps every node, also
/// when the benchmark panics or a boot fails halfway.
pub struct Cluster {
    nodes: Vec<NodeProcess>,
    /// The bootstrap every node runs, with the real addresses.
    pub boot: Bootstrap,
    /// How long from spawning the first node until every node answered a
    /// `Ping`.
    pub boot_time: Duration,
}

impl Cluster {
    /// Spawns `template.addrs.len()` nodes, hands each the bootstrap with the
    /// kernel-assigned addresses filled in, and waits until every node
    /// answers a `Ping`. Node logs go to `log_dir`.
    pub fn boot(exe: &Path, template: &Bootstrap, log_dir: &Path) -> Result<Cluster, String> {
        let started = Instant::now();
        let mut cluster =
            Cluster { nodes: Vec::new(), boot: template.clone(), boot_time: Duration::ZERO };
        for id in 0..template.addrs.len() {
            let log = log_dir.join(format!("node-{id}.log"));
            cluster.nodes.push(NodeProcess::spawn(exe, id, &log)?);
        }
        cluster.boot.addrs = cluster.nodes.iter().map(|n| n.addr.clone()).collect();
        let text = format!("{}end\n", cluster.boot.render());
        for (id, node) in cluster.nodes.iter_mut().enumerate() {
            node.send(id, &text)?;
        }
        for (id, node) in cluster.nodes.iter_mut().enumerate() {
            let line = node.expect_line(id, BOOT_TIMEOUT)?;
            if line != "ready" {
                return Err(format!("node {id}: expected `ready`, got `{line}`"));
            }
        }
        for id in 0..cluster.nodes.len() {
            match cluster.connect(id)?.request(Request::Ping) {
                Ok(Response::Pong) => {}
                Ok(other) => return Err(format!("node {id}: Ping answered {other:?}")),
                Err(e) => return Err(format!("node {id}: Ping failed: {e}")),
            }
        }
        cluster.boot_time = started.elapsed();
        Ok(cluster)
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the cluster has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// A new client connection to node `id`.
    pub fn connect(&self, id: usize) -> Result<Client, String> {
        Client::connect(&self.nodes[id].addr, Role::Client)
            .map_err(|e| format!("cannot connect to node {id}: {e}"))
    }

    /// Summed CPU time of every node, from `/proc/<pid>/stat`.
    pub fn cpu(&self) -> Result<Duration, String> {
        self.nodes.iter().map(|n| procfs::stat(Some(n.pid())).map(|s| s.cpu())).sum()
    }

    /// Summed peak RSS of every node in MiB, from `/proc/<pid>/status`.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        self.nodes.iter().map(|n| procfs::status(Some(n.pid())).map(|s| s.peak_rss_mb())).sum()
    }

    /// Summed context switches of every node, as each reports them over its
    /// control pipe.
    pub fn switches(&mut self) -> Result<Switches, String> {
        let mut total = Switches::default();
        for (id, node) in self.nodes.iter_mut().enumerate() {
            node.send(id, "rusage\n")?;
            let one = Switches::from_line(&node.expect_line(id, BOOT_TIMEOUT)?)?;
            total.voluntary += one.voluntary;
            total.involuntary += one.involuntary;
        }
        Ok(total)
    }

    /// Shuts every node down with a `Shutdown` request and waits for the
    /// processes to exit; a node that does not exit in time is killed and
    /// reported.
    pub fn shutdown(mut self) -> Result<(), String> {
        let mut result = Ok(());
        for id in 0..self.nodes.len() {
            let answer = self.connect(id).and_then(|mut c| {
                c.request(Request::Shutdown).map_err(|e| format!("node {id}: Shutdown: {e}"))
            });
            match answer {
                Ok(Response::Ok) => {}
                Ok(other) => result = Err(format!("node {id}: Shutdown answered {other:?}")),
                Err(e) => result = Err(e),
            }
        }
        for (id, node) in self.nodes.iter_mut().enumerate() {
            if !node.wait_exit(EXIT_TIMEOUT) && result.is_ok() {
                result = Err(format!("node {id} did not exit after Shutdown"));
            }
            node.reap();
        }
        result
    }
}

/// A per-run directory for node logs, removed on success and kept on
/// failure.
pub struct LogDir {
    /// The directory.
    pub path: PathBuf,
    keep: bool,
}

impl LogDir {
    /// Creates `path` (and its parents).
    pub fn create(path: PathBuf) -> Result<LogDir, String> {
        std::fs::create_dir_all(&path)
            .map_err(|e| format!("cannot create {}: {e}", path.display()))?;
        Ok(LogDir { path, keep: false })
    }

    /// Keeps the logs when this value is dropped (they are also kept when it
    /// is dropped by a panic).
    pub fn keep(&mut self) {
        self.keep = true;
    }
}

impl Drop for LogDir {
    fn drop(&mut self) {
        if self.keep || std::thread::panicking() {
            eprintln!("starbench: node logs kept in {}", self.path.display());
        } else {
            let _ = std::fs::remove_dir_all(&self.path);
        }
    }
}
