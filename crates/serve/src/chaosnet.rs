//! Chaos-net: a fault-injecting TCP proxy for the serve/worker plane.
//!
//! The proxy sits between a worker and the coordinator and speaks the
//! same length-prefixed framing as [`crate::proto`], which lets it
//! inject faults at *frame* granularity — the faults a real network
//! (or a hostile middlebox) produces, expressed in the protocol's own
//! vocabulary:
//!
//! * [`FrameFault::Delay`] — hold a frame for a while before
//!   forwarding it (latency spike / reordering pressure).
//! * [`FrameFault::DropAfterBytes`] — forward exactly N bytes in one
//!   direction, then sever the connection, possibly mid-frame (the
//!   classic half-written-length-prefix tear).
//! * [`FrameFault::Truncate`] — forward only a prefix of one frame and
//!   then sever (a tear aligned to a specific protocol message).
//! * [`FrameFault::Duplicate`] — forward one frame twice (retransmit /
//!   at-least-once delivery).
//!
//! This is the distributed analog of PR 7's scalar-vs-batch
//! differential oracle: tests drive full campaigns through the proxy
//! under many fault schedules and require the final merged report to
//! be byte-identical to an undisturbed run (`tests/chaos_net.rs`).
//!
//! The proxy is deliberately dumb about *content*: it never parses a
//! payload, only the 4-byte length prefix, so it can never "helpfully"
//! repair what it forwards.

use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

/// One injected network fault, applied to a single direction of a
/// proxied connection. `frame` indices count from 0 per direction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameFault {
    /// Hold frame `frame` for `by` before forwarding it.
    Delay {
        /// Which frame (0-based, per direction) to delay.
        frame: usize,
        /// How long to hold it.
        by: Duration,
    },
    /// Forward exactly `bytes` in this direction, then sever the
    /// connection — the cut lands wherever the byte count says,
    /// including inside a length prefix.
    DropAfterBytes {
        /// Total bytes to let through before the cut.
        bytes: usize,
    },
    /// Forward only the first `keep` bytes of frame `frame`, then
    /// sever the connection.
    Truncate {
        /// Which frame to tear.
        frame: usize,
        /// Bytes of it (prefix included) to forward before the cut.
        keep: usize,
    },
    /// Forward frame `frame` twice back to back.
    Duplicate {
        /// Which frame to send twice.
        frame: usize,
    },
}

/// The faults applied to one proxied connection, split by direction.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    /// Faults on the worker→coordinator direction.
    pub to_server: Vec<FrameFault>,
    /// Faults on the coordinator→worker direction.
    pub to_client: Vec<FrameFault>,
}

impl FaultPlan {
    /// A plan that forwards everything untouched.
    pub fn clean() -> Self {
        FaultPlan::default()
    }
}

/// Decides the [`FaultPlan`] for the n-th accepted connection
/// (0-based). Reconnects get fresh plans, so a schedule can hit the
/// first connection and leave retries alone.
pub type FaultSchedule = Arc<dyn Fn(usize) -> FaultPlan + Send + Sync>;

/// Counters describing what the proxy actually did — tests assert on
/// these so a "chaos" run that injected nothing cannot silently pass.
#[derive(Debug, Default)]
pub struct ChaosStats {
    /// Connections accepted by the proxy.
    pub connections: AtomicU64,
    /// Whole frames forwarded (both directions, duplicates counted).
    pub frames_forwarded: AtomicU64,
    /// Faults actually applied (a scheduled fault whose frame never
    /// arrives injects nothing).
    pub faults_injected: AtomicU64,
    /// Connections killed by a severing fault.
    pub connections_severed: AtomicU64,
}

impl ChaosStats {
    /// Connections accepted so far.
    pub fn connections(&self) -> u64 {
        self.connections.load(Ordering::Relaxed)
    }
    /// Whole frames forwarded so far.
    pub fn frames_forwarded(&self) -> u64 {
        self.frames_forwarded.load(Ordering::Relaxed)
    }
    /// Faults applied so far.
    pub fn faults_injected(&self) -> u64 {
        self.faults_injected.load(Ordering::Relaxed)
    }
    /// Connections severed by a fault so far.
    pub fn connections_severed(&self) -> u64 {
        self.connections_severed.load(Ordering::Relaxed)
    }
}

/// A fault-injecting TCP proxy in front of `upstream`.
// Manual Debug: the accept-thread handle carries no useful state.
pub struct ChaosProxy {
    local: SocketAddr,
    stats: Arc<ChaosStats>,
    stop: Arc<AtomicBool>,
    accept: Option<thread::JoinHandle<()>>,
}

impl std::fmt::Debug for ChaosProxy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ChaosProxy")
            .field("local", &self.local)
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

impl ChaosProxy {
    /// Starts a proxy on an ephemeral localhost port, forwarding to
    /// `upstream` with per-connection faults from `schedule`.
    pub fn bind(upstream: SocketAddr, schedule: FaultSchedule) -> std::io::Result<ChaosProxy> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let local = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let stats = Arc::new(ChaosStats::default());
        let stop = Arc::new(AtomicBool::new(false));
        let accept = {
            let (stats, stop) = (Arc::clone(&stats), Arc::clone(&stop));
            thread::spawn(move || {
                let mut conn_index = 0usize;
                while !stop.load(Ordering::Relaxed) {
                    match listener.accept() {
                        Ok((client, _)) => {
                            let plan = schedule(conn_index);
                            conn_index += 1;
                            stats.connections.fetch_add(1, Ordering::Relaxed);
                            let stats = Arc::clone(&stats);
                            // Connection setup failures count as chaos
                            // too — the worker must survive them.
                            thread::spawn(move || {
                                let _ = proxy_conn(client, upstream, plan, stats);
                            });
                        }
                        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                            thread::sleep(Duration::from_millis(5));
                        }
                        Err(_) => break,
                    }
                }
            })
        };
        Ok(ChaosProxy {
            local,
            stats,
            stop,
            accept: Some(accept),
        })
    }

    /// The address workers should connect to.
    pub fn local_addr(&self) -> SocketAddr {
        self.local
    }

    /// Live counters of what the proxy has done.
    pub fn stats(&self) -> &ChaosStats {
        &self.stats
    }

    /// Stops accepting new connections. In-flight pumps drain on their
    /// own when either endpoint closes.
    pub fn stop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
    }
}

impl Drop for ChaosProxy {
    fn drop(&mut self) {
        self.stop();
    }
}

fn proxy_conn(
    client: TcpStream,
    upstream: SocketAddr,
    plan: FaultPlan,
    stats: Arc<ChaosStats>,
) -> std::io::Result<()> {
    let server = TcpStream::connect(upstream)?;
    let c2s = {
        let (rd, wr) = (client.try_clone()?, server.try_clone()?);
        let kill = (client.try_clone()?, server.try_clone()?);
        let (faults, stats) = (plan.to_server, Arc::clone(&stats));
        thread::spawn(move || pump(rd, wr, kill, faults, stats))
    };
    let kill = (client.try_clone()?, server.try_clone()?);
    pump(server, client, kill, plan.to_client, stats);
    let _ = c2s.join();
    Ok(())
}

/// Forwards whole frames from `rd` to `wr`, applying `faults`. On any
/// severing fault it shuts down both underlying sockets so each peer
/// sees a hard connection loss, not a tidy close.
fn pump(
    mut rd: TcpStream,
    mut wr: TcpStream,
    kill: (TcpStream, TcpStream),
    faults: Vec<FrameFault>,
    stats: Arc<ChaosStats>,
) {
    let sever = |counted: bool| {
        if counted {
            stats.connections_severed.fetch_add(1, Ordering::Relaxed);
        }
        let _ = kill.0.shutdown(Shutdown::Both);
        let _ = kill.1.shutdown(Shutdown::Both);
    };
    let byte_budget = faults.iter().find_map(|f| match f {
        FrameFault::DropAfterBytes { bytes } => Some(*bytes),
        _ => None,
    });
    let mut sent = 0usize;
    let mut frame_index = 0usize;
    loop {
        // Read one whole frame: 4-byte big-endian length + payload.
        let mut len_buf = [0u8; 4];
        if rd.read_exact(&mut len_buf).is_err() {
            break;
        }
        let len = u32::from_be_bytes(len_buf) as usize;
        let mut frame = Vec::with_capacity(4 + len);
        frame.extend_from_slice(&len_buf);
        frame.resize(4 + len, 0);
        if rd.read_exact(&mut frame[4..]).is_err() {
            break;
        }

        for f in &faults {
            if let FrameFault::Delay { frame: at, by } = f {
                if *at == frame_index {
                    stats.faults_injected.fetch_add(1, Ordering::Relaxed);
                    thread::sleep(*by);
                }
            }
        }
        if let Some(t) = faults.iter().find_map(|f| match f {
            FrameFault::Truncate { frame: at, keep } if *at == frame_index => Some(*keep),
            _ => None,
        }) {
            stats.faults_injected.fetch_add(1, Ordering::Relaxed);
            let keep = t.min(frame.len());
            let _ = wr.write_all(&frame[..keep]);
            let _ = wr.flush();
            sever(true);
            return;
        }
        let mut copies = 1usize;
        if faults
            .iter()
            .any(|f| matches!(f, FrameFault::Duplicate { frame: at } if *at == frame_index))
        {
            stats.faults_injected.fetch_add(1, Ordering::Relaxed);
            copies = 2;
        }
        for _ in 0..copies {
            if let Some(budget) = byte_budget {
                if sent + frame.len() > budget {
                    let keep = budget.saturating_sub(sent);
                    stats.faults_injected.fetch_add(1, Ordering::Relaxed);
                    let _ = wr.write_all(&frame[..keep]);
                    let _ = wr.flush();
                    sever(true);
                    return;
                }
            }
            if wr.write_all(&frame).is_err() {
                sever(false);
                return;
            }
            sent += frame.len();
            stats.frames_forwarded.fetch_add(1, Ordering::Relaxed);
        }
        frame_index += 1;
    }
    // Reader reached EOF (or errored): propagate a *half*-close so the
    // peer sees end-of-stream on this direction while replies already
    // in flight the other way still drain. Only injected faults and
    // write failures tear down both directions at once.
    let _ = wr.shutdown(Shutdown::Write);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};

    fn frame(payload: &[u8]) -> Vec<u8> {
        let mut f = (payload.len() as u32).to_be_bytes().to_vec();
        f.extend_from_slice(payload);
        f
    }

    /// An echo server that frames back every payload it receives.
    fn echo_server() -> (SocketAddr, thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let h = thread::spawn(move || {
            while let Ok((mut s, _)) = listener.accept() {
                let mut buf = Vec::new();
                if s.read_to_end(&mut buf).is_ok() {
                    let _ = s.write_all(&buf);
                }
            }
        });
        (addr, h)
    }

    #[test]
    fn clean_plan_forwards_frames_untouched() {
        let (addr, _h) = echo_server();
        let proxy = ChaosProxy::bind(addr, Arc::new(|_| FaultPlan::clean())).unwrap();
        let mut c = TcpStream::connect(proxy.local_addr()).unwrap();
        let msg = frame(b"kind=heartbeat");
        c.write_all(&msg).unwrap();
        c.shutdown(Shutdown::Write).unwrap();
        let mut back = Vec::new();
        c.read_to_end(&mut back).unwrap();
        assert_eq!(back, msg);
        assert_eq!(proxy.stats().faults_injected(), 0);
        assert!(proxy.stats().frames_forwarded() >= 2);
    }

    #[test]
    fn duplicate_fault_repeats_the_frame() {
        let (addr, _h) = echo_server();
        let proxy = ChaosProxy::bind(
            addr,
            Arc::new(|_| FaultPlan {
                to_server: vec![FrameFault::Duplicate { frame: 0 }],
                to_client: Vec::new(),
            }),
        )
        .unwrap();
        let mut c = TcpStream::connect(proxy.local_addr()).unwrap();
        let msg = frame(b"kind=record");
        c.write_all(&msg).unwrap();
        c.shutdown(Shutdown::Write).unwrap();
        let mut back = Vec::new();
        c.read_to_end(&mut back).unwrap();
        let mut twice = msg.clone();
        twice.extend_from_slice(&msg);
        assert_eq!(back, twice);
        assert_eq!(proxy.stats().faults_injected(), 1);
    }

    #[test]
    fn truncate_fault_tears_mid_frame_and_severs() {
        let (addr, _h) = echo_server();
        let proxy = ChaosProxy::bind(
            addr,
            Arc::new(|_| FaultPlan {
                to_server: vec![FrameFault::Truncate { frame: 0, keep: 6 }],
                to_client: Vec::new(),
            }),
        )
        .unwrap();
        let mut c = TcpStream::connect(proxy.local_addr()).unwrap();
        let msg = frame(b"kind=lease_req");
        c.write_all(&msg).unwrap();
        let mut back = Vec::new();
        // The proxy severs, so the echo reflects at most 6 bytes.
        let _ = c.read_to_end(&mut back);
        assert!(back.len() <= 6, "got {} bytes back", back.len());
        assert_eq!(proxy.stats().faults_injected(), 1);
        assert_eq!(proxy.stats().connections_severed(), 1);
    }

    #[test]
    fn drop_after_bytes_cuts_inside_the_length_prefix() {
        let (addr, _h) = echo_server();
        let proxy = ChaosProxy::bind(
            addr,
            Arc::new(|_| FaultPlan {
                to_server: vec![FrameFault::DropAfterBytes { bytes: 2 }],
                to_client: Vec::new(),
            }),
        )
        .unwrap();
        let mut c = TcpStream::connect(proxy.local_addr()).unwrap();
        let msg = frame(b"kind=hello");
        let _ = c.write_all(&msg);
        let mut back = Vec::new();
        let _ = c.read_to_end(&mut back);
        assert!(back.len() <= 2, "got {} bytes back", back.len());
        assert_eq!(proxy.stats().connections_severed(), 1);
    }

    #[test]
    fn schedule_distinguishes_connections() {
        let (addr, _h) = echo_server();
        let proxy = ChaosProxy::bind(
            addr,
            Arc::new(|i| {
                if i == 0 {
                    FaultPlan {
                        to_server: vec![FrameFault::DropAfterBytes { bytes: 0 }],
                        to_client: Vec::new(),
                    }
                } else {
                    FaultPlan::clean()
                }
            }),
        )
        .unwrap();
        // First connection dies instantly.
        let mut c = TcpStream::connect(proxy.local_addr()).unwrap();
        let msg = frame(b"kind=hello");
        let _ = c.write_all(&msg);
        let mut back = Vec::new();
        let _ = c.read_to_end(&mut back);
        assert!(back.is_empty());
        // Second gets through clean — the retry path a worker takes.
        let mut c2 = TcpStream::connect(proxy.local_addr()).unwrap();
        c2.write_all(&msg).unwrap();
        c2.shutdown(Shutdown::Write).unwrap();
        let mut back2 = Vec::new();
        c2.read_to_end(&mut back2).unwrap();
        assert_eq!(back2, msg);
        assert_eq!(proxy.stats().connections(), 2);
    }
}
