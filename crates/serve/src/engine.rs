//! Role hosts: the event loop that runs [`WireRole`]s over real sockets.
//!
//! One OS thread per role (thread-per-role, the workspace's minimal
//! stand-in for thread-per-core), each owning a nonblocking listener and
//! a bounded connection set. Accept backpressure is literal: a host at
//! its connection cap simply stops calling `accept(2)`, letting the
//! kernel's SYN backlog absorb or shed the excess.
//!
//! ## Connection hello and the label side channel
//!
//! The first frame on every connection is a CONNECT hello:
//! `nonce:u64be ‖ sender:u16be`. In loopback mode the nonce must have
//! been pre-registered (single-use) by the sending host on the shared
//! [`LabelBus`] — a rogue local connection that invents a hello is
//! poisoned and observes nothing. Verified data frames then pop exactly
//! one label per frame from the bus's per-direction FIFO (valid because
//! TCP preserves order within a connection and each directed pair uses
//! one connection), and the engine replays the simulator's delivery
//! rule — `world.observe(entity, &label)` *before* the role sees the
//! frame. The bus also holds the spec's taps: a label pushed onto a
//! tapped link is observed by the tap's observer right then, as the
//! simulator's wiretap observes a message when it is sent. And it counts
//! what is pending, so a loopback run ends where the simulator's does
//! (see [`run_loopback`]). In
//! multi-process mode there is no shared bus or world: the hello only
//! identifies the peer, frames deliver with `Label::Public`, and the twin
//! check belongs to the loopback run.
//!
//! ## Fail-closed invariants
//!
//! * A decode error ([`FrameReader`]) closes that connection; no resync
//!   guessing.
//! * A frame before a (valid) hello, a second hello, or a data frame
//!   with no queued label closes the connection.
//! * A role panic tears down the run with [`ServeError::RoleCrash`];
//!   hostile *wire bytes* can never cause one (roles are written
//!   fail-closed, and `tests/serve_loopback.rs` fuzzes the decoder).

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::io::Read;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use dcp_core::role::RoleKind;
use dcp_core::{EntityId, Label, World};
use dcp_runtime::seam::{
    apply_effects, PeerId, RoleSpec, ServeSpec, WireCtx, WireMsg, WireRole, WireTap,
};
use dcp_transport::frame::{Frame, FrameType};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::codec::{write_frame, FrameReader};
use crate::{ServeError, ServeOutcome};

/// Engine knobs.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Per-host inbound connection cap; at the cap the host stops
    /// accepting (backpressure) until a connection closes.
    pub max_conns: usize,
    /// Seed for engine randomness (role RNGs, hello nonces). The same
    /// seed the simulated twin ran with, by convention.
    pub seed: u64,
    /// Wall-clock bound on the whole run: when it passes, shutdown is
    /// signalled regardless of progress (a hung peer must not hang the
    /// process forever).
    pub deadline: Duration,
    /// Loopback only: if set, the engine sends every role's bound
    /// address (indexed by peer id) here right after binding, before any
    /// role starts. Exists so tests can aim hostile traffic at live
    /// listeners; production callers leave it `None`.
    pub port_report: Option<std::sync::mpsc::Sender<Vec<SocketAddr>>>,
    /// Dial attempts per outbound connection (minimum 1). A peer that is
    /// still binding, or briefly restarting, refuses the first connect;
    /// the host retries with backoff instead of failing the run, and a
    /// peer still unreachable after the budget is a typed
    /// [`ServeError::DialExhausted`](crate::ServeError::DialExhausted).
    pub dial_attempts: u32,
    /// Base backoff between dial attempts; attempt `k` waits roughly
    /// `k × dial_backoff`, with ±50% seeded jitter so a herd of
    /// redialing hosts never re-synchronizes.
    pub dial_backoff: Duration,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            max_conns: 64,
            seed: 0,
            deadline: Duration::from_secs(30),
            port_report: None,
            dial_attempts: 4,
            dial_backoff: Duration::from_millis(25),
        }
    }
}

/// The loopback label side channel plus the hello-nonce registry.
///
/// Labels are verification shadow state — they never touch a socket.
/// Each directed role pair `(from, to)` keeps a FIFO of labels, pushed
/// by the sender *before* the frame bytes are written and popped by the
/// receiver per delivered frame; TCP's in-order delivery on the single
/// connection per pair keeps bytes and labels in lock-step. A label
/// pushed onto a link one of `taps` watches is observed by that tap's
/// observer as it is pushed.
///
/// `pending` counts the run's outstanding work: each host from its
/// creation until its start callback returns, each frame from its
/// label's push until the receiver's callback for it returns, and each
/// timer while it is armed. Every count is taken before the work it
/// stands for can finish, and a callback's own sends and timers are
/// counted before the callback's item is settled, so zero means quiet
/// for good.
#[derive(Default)]
pub(crate) struct LabelBus {
    queues: Mutex<HashMap<(u16, u16), VecDeque<Label>>>,
    nonces: Mutex<HashMap<u64, u16>>,
    taps: Vec<WireTap>,
    pending: AtomicUsize,
}

impl LabelBus {
    fn push(&self, world: &Mutex<World>, from: u16, to: u16, label: Label) {
        self.pending.fetch_add(1, Ordering::SeqCst);
        for tap in self
            .taps
            .iter()
            .filter(|t| t.watches(PeerId(from), PeerId(to)))
        {
            world
                .lock()
                .expect("no role host panics holding the world")
                .observe(tap.observer, &label);
        }
        self.queues
            .lock()
            .unwrap()
            .entry((from, to))
            .or_default()
            .push_back(label);
    }

    fn pop(&self, from: u16, to: u16) -> Option<Label> {
        self.queues
            .lock()
            .unwrap()
            .get_mut(&(from, to))
            .and_then(VecDeque::pop_front)
    }

    fn register_nonce(&self, nonce: u64, sender: u16) {
        self.nonces.lock().unwrap().insert(nonce, sender);
    }

    /// Single-use: a replayed hello finds its nonce gone and fails.
    fn take_nonce(&self, nonce: u64) -> Option<u16> {
        self.nonces.lock().unwrap().remove(&nonce)
    }
}

/// One full-duplex connection: either accepted (peer learned from the
/// hello) or dialed (peer known at connect time). A directed role pair
/// uses exactly one connection — replies ride the requester's dial — so
/// the label side channel's per-pair FIFO stays aligned with TCP's
/// in-order delivery.
struct Conn {
    stream: TcpStream,
    reader: FrameReader,
    /// `Some(peer)` once identified: immediately for dialed connections,
    /// after a valid hello for accepted ones. Frames on an accepted
    /// connection before its hello are a protocol violation and close it.
    peer: Option<u16>,
    /// Accepted connections expect a hello; dialed ones must never see
    /// one.
    dialed: bool,
}

/// Engine state shared by every host of one run.
struct SharedRun {
    /// The run's clock origin: [`WireCtx::now_us`] is time since this.
    epoch: Instant,
    /// Loopback only: the knowledge-ledger twin.
    world: Option<Arc<Mutex<World>>>,
    /// Is a metrics sink installed on the twin? Fixed for the run.
    obs: bool,
    /// Loopback only: the label side channel.
    bus: Option<Arc<LabelBus>>,
    shutdown: Arc<AtomicBool>,
    units: Arc<AtomicU64>,
    initiators_done: Arc<AtomicUsize>,
}

struct RoleHost {
    idx: u16,
    entity: EntityId,
    kind: RoleKind,
    role: Box<dyn WireRole>,
    listener: TcpListener,
    peer_addrs: HashMap<u16, SocketAddr>,
    conns: Vec<Conn>,
    /// Role-visible RNG (sealing operations).
    rng: StdRng,
    /// Engine-only RNG (hello nonces) — separate so engine draws can
    /// never perturb protocol-level randomness.
    nonce_rng: StdRng,
    /// Armed timers, `(deadline, arming order) → token`: due timers fire
    /// in deadline order, ties in the order they were armed.
    timers: BTreeMap<(Instant, u64), u64>,
    timers_armed: u64,
    shared: SharedRun,
    max_conns: usize,
    dial_attempts: u32,
    dial_backoff: Duration,
}

impl RoleHost {
    /// Host role `idx` of a wiring on `listener`. Its RNG and the
    /// engine's nonce RNG are seeded here from the run seed and the peer
    /// id, in one place, so a role draws the same bytes whether it runs
    /// in a process of its own or beside its peers in loopback mode.
    fn new(
        idx: u16,
        rs: RoleSpec,
        listener: TcpListener,
        peer_addrs: HashMap<u16, SocketAddr>,
        shared: SharedRun,
        cfg: &ServeConfig,
    ) -> Self {
        let i = u64::from(idx);
        RoleHost {
            idx,
            entity: rs.entity,
            kind: rs.kind,
            role: rs.role,
            listener,
            peer_addrs,
            conns: Vec::new(),
            rng: StdRng::seed_from_u64(cfg.seed ^ (0x5e57e ^ i).wrapping_mul(0x9e37)),
            nonce_rng: StdRng::seed_from_u64(cfg.seed ^ 0xa0_0e ^ (i << 32)),
            timers: BTreeMap::new(),
            timers_armed: 0,
            shared,
            max_conns: cfg.max_conns,
            dial_attempts: cfg.dial_attempts,
            dial_backoff: cfg.dial_backoff,
        }
    }

    /// Host the role until shutdown. An initiator reports once when it
    /// finishes; in process mode it then stops, while in loopback mode it
    /// keeps taking frames and timers, as a finished simulator node does,
    /// until the run ends.
    fn run(mut self) -> Result<(), ServeError> {
        self.listener
            .set_nonblocking(true)
            .map_err(ServeError::Io)?;
        self.call(|role, ctx| role.on_start(ctx))?;
        self.settle();
        let mut reported = false;
        let mut buf = [0u8; 4096];
        loop {
            if self.shared.shutdown.load(Ordering::SeqCst) {
                break;
            }
            if self.kind == RoleKind::Initiator && !reported && self.role.finished() {
                reported = true;
                self.shared.initiators_done.fetch_add(1, Ordering::SeqCst);
                if self.shared.bus.is_none() {
                    break;
                }
            }
            let mut progress = self.fire_due_timers()?;

            // Accept with backpressure: at the cap, simply don't accept.
            while self.conns.len() < self.max_conns {
                match self.listener.accept() {
                    Ok((stream, _)) => {
                        stream.set_nonblocking(true).map_err(ServeError::Io)?;
                        self.conns.push(Conn {
                            stream,
                            reader: FrameReader::new(),
                            peer: None,
                            dialed: false,
                        });
                        progress = true;
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                    Err(_) => break,
                }
            }

            // Drain readable connections; any per-connection failure
            // closes that connection only.
            let mut i = 0;
            while i < self.conns.len() {
                match self.conns[i].stream.read(&mut buf) {
                    Ok(0) => {
                        self.conns.swap_remove(i);
                        continue;
                    }
                    Ok(n) => {
                        progress = true;
                        let frames = match self.conns[i].reader.push(&buf[..n]) {
                            Ok(frames) => frames,
                            Err(_) => {
                                // Undecodable stream: fail closed.
                                self.conns.swap_remove(i);
                                continue;
                            }
                        };
                        let mut poisoned = false;
                        for frame in frames {
                            if !self.handle_frame(i, frame)? {
                                poisoned = true;
                                break;
                            }
                        }
                        if poisoned {
                            self.conns.swap_remove(i);
                            continue;
                        }
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {}
                    Err(_) => {
                        self.conns.swap_remove(i);
                        continue;
                    }
                }
                i += 1;
            }

            if !progress {
                // Idle: nap, but never past the next timer's deadline.
                let mut nap = Duration::from_micros(300);
                if let Some(&(at, _)) = self.timers.keys().next() {
                    nap = nap.min(at.saturating_duration_since(Instant::now()));
                }
                std::thread::sleep(nap);
            }
        }
        Ok(())
    }

    /// Process one decoded frame on connection `ci`. `Ok(false)` poisons
    /// the connection (fail closed); errors tear the run down.
    fn handle_frame(&mut self, ci: usize, frame: Frame) -> Result<bool, ServeError> {
        // A hello on a connection *we* dialed is a protocol violation no
        // matter what it claims.
        if self.conns[ci].dialed && frame.ftype == FrameType::Connect {
            return Ok(false);
        }
        match (self.conns[ci].peer, frame.ftype) {
            (None, FrameType::Connect) => {
                if frame.payload.len() != 10 {
                    return Ok(false);
                }
                let nonce = u64::from_be_bytes(frame.payload[..8].try_into().expect("8 bytes"));
                let from = u16::from_be_bytes([frame.payload[8], frame.payload[9]]);
                match &self.shared.bus {
                    // Loopback: the hello must present a nonce the
                    // claimed sender registered — single-use, so replays
                    // fail too. A rogue connection observes nothing.
                    Some(bus) => match bus.take_nonce(nonce) {
                        Some(registered) if registered == from => {
                            self.conns[ci].peer = Some(from);
                            Ok(true)
                        }
                        _ => Ok(false),
                    },
                    // Multi-process: the hello is identification, not
                    // authentication (that is the transport-security
                    // layer's job, out of scope here — see docs/SERVE.md).
                    None => {
                        self.conns[ci].peer = Some(from);
                        Ok(true)
                    }
                }
            }
            // Data before a hello, or a second hello: protocol violation.
            (None, _) | (Some(_), FrameType::Connect) => Ok(false),
            (Some(from), ftype) => {
                let label = match &self.shared.bus {
                    Some(bus) => match bus.pop(from, self.idx) {
                        Some(label) => label,
                        // Bytes without a shadow label would mean the
                        // sender bypassed the seam: desync, fail closed.
                        None => return Ok(false),
                    },
                    None => Label::Public,
                };
                // The simulator's delivery rule, replayed: the receiving
                // entity observes the label before protocol processing.
                if let Some(world) = &self.shared.world {
                    world.lock().unwrap().observe(self.entity, &label);
                }
                let msg = WireMsg {
                    ftype,
                    payload: frame.payload,
                    label,
                };
                self.call(|role, ctx| role.on_frame(ctx, PeerId(from), msg))?;
                self.settle();
                Ok(true)
            }
        }
    }

    /// Fire every timer whose deadline has passed; `true` if any did.
    fn fire_due_timers(&mut self) -> Result<bool, ServeError> {
        let mut fired = false;
        while let Some(entry) = self.timers.first_entry() {
            if entry.key().0 > Instant::now() {
                break;
            }
            let token = entry.remove();
            self.call(|role, ctx| role.on_timer(ctx, token))?;
            self.settle();
            fired = true;
        }
        Ok(fired)
    }

    /// Run one role callback and apply its effects.
    fn call(&mut self, f: impl FnOnce(&mut dyn WireRole, &mut WireCtx)) -> Result<(), ServeError> {
        let now = Instant::now();
        let now_us = now.duration_since(self.shared.epoch).as_micros() as u64;
        let mut ctx = WireCtx::new(&mut self.rng, PeerId(self.idx), now_us, self.shared.obs);
        f(self.role.as_mut(), &mut ctx);
        let fx = ctx.finish();
        if let Some(world) = &self.shared.world {
            apply_effects(&mut world.lock().unwrap(), self.entity, &fx);
        }
        if fx.units_done > 0 {
            self.shared.units.fetch_add(fx.units_done, Ordering::SeqCst);
        }
        for (delay_us, token) in fx.timers {
            // A deadline past what `Instant` can represent never fires.
            let Some(at) = now.checked_add(Duration::from_micros(delay_us)) else {
                continue;
            };
            self.timers.insert((at, self.timers_armed), token);
            self.timers_armed += 1;
            if let Some(bus) = &self.shared.bus {
                bus.pending.fetch_add(1, Ordering::SeqCst);
            }
        }
        for (to, msg) in fx.out {
            self.send(to.0, msg)?;
        }
        Ok(())
    }

    /// Loopback only: settle the start, frame or timer a callback just
    /// handled.
    fn settle(&self) {
        if let Some(bus) = &self.shared.bus {
            bus.pending.fetch_sub(1, Ordering::SeqCst);
        }
    }

    fn send(&mut self, to: u16, msg: WireMsg) -> Result<(), ServeError> {
        // Prefer the connection we already share with this peer — the
        // one they dialed to us, or one we dialed earlier. Replies riding
        // the requester's own connection is what lets a pure responder
        // (the origin) run with no peer addresses at all, and keeps each
        // pair on a single TCP stream so the loopback label FIFO stays
        // aligned with byte order.
        if !self.conns.iter().any(|c| c.peer == Some(to)) {
            let addr = *self
                .peer_addrs
                .get(&to)
                .ok_or(ServeError::UnknownPeer(to))?;
            let mut stream = dial_with_backoff(
                addr,
                to,
                self.dial_attempts,
                self.dial_backoff,
                &mut self.nonce_rng,
            )?;
            let nonce: u64 = self.nonce_rng.gen();
            if let Some(bus) = &self.shared.bus {
                bus.register_nonce(nonce, self.idx);
            }
            let mut hello = nonce.to_be_bytes().to_vec();
            hello.extend_from_slice(&self.idx.to_be_bytes());
            // Hello goes out while the stream still blocks; everything
            // after is nonblocking, full duplex.
            write_frame(&mut stream, FrameType::Connect, &hello)?;
            stream.set_nonblocking(true).map_err(ServeError::Io)?;
            self.conns.push(Conn {
                stream,
                reader: FrameReader::new(),
                peer: Some(to),
                dialed: true,
            });
        }
        // Label rides the side channel, pushed strictly before the frame
        // bytes so the receiver can never see bytes without their label.
        if let (Some(bus), Some(world)) = (&self.shared.bus, &self.shared.world) {
            bus.push(world, self.idx, to, msg.label.clone());
        }
        let conn = self
            .conns
            .iter_mut()
            .find(|c| c.peer == Some(to))
            .expect("just ensured");
        write_frame_retry(&mut conn.stream, msg.ftype, &msg.payload)
    }
}

/// Dial a peer with bounded retry: transient refusals (a peer that has
/// not finished binding, or is briefly restarting) are retried with
/// linear backoff plus seeded jitter from the engine-only RNG; a peer
/// still unreachable after the budget is a typed
/// [`ServeError::DialExhausted`], never a hang and never a silent drop.
fn dial_with_backoff(
    addr: SocketAddr,
    peer: u16,
    attempts: u32,
    backoff: Duration,
    jitter_rng: &mut StdRng,
) -> Result<TcpStream, ServeError> {
    let budget = attempts.max(1);
    let mut last = None;
    for attempt in 0..budget {
        match TcpStream::connect(addr) {
            Ok(s) => return Ok(s),
            Err(e) => {
                last = Some(e);
                if attempt + 1 < budget {
                    // Attempt k waits roughly k × backoff, jittered into
                    // [50%, 150%] so redialing hosts spread out.
                    let base = (backoff.as_micros() as u64).max(1) * (attempt as u64 + 1);
                    let jittered = base / 2 + jitter_rng.gen_range(0..=base);
                    std::thread::sleep(Duration::from_micros(jittered));
                }
            }
        }
    }
    Err(ServeError::DialExhausted {
        peer,
        attempts: budget,
        last: last.expect("at least one attempt was made"),
    })
}

/// `write_all` for a nonblocking stream: a full kernel send buffer
/// (`WouldBlock`) means back off briefly and keep going — a partial
/// frame on the wire is never acceptable.
fn write_frame_retry(
    stream: &mut TcpStream,
    ftype: FrameType,
    payload: &[u8],
) -> Result<(), ServeError> {
    use std::io::Write;
    let bytes = Frame::new(ftype, payload.to_vec())
        .encode()
        .map_err(ServeError::Wire)?;
    let mut off = 0;
    while off < bytes.len() {
        match stream.write(&bytes[off..]) {
            Ok(0) => {
                return Err(ServeError::Io(std::io::Error::new(
                    std::io::ErrorKind::WriteZero,
                    "peer closed mid-frame",
                )))
            }
            Ok(n) => off += n,
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_micros(100));
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(ServeError::Io(e)),
        }
    }
    Ok(())
}

/// Run a whole wiring in one process: every role a thread, traffic over
/// real loopback TCP, labels on the in-memory side channel, the world a
/// shared twin ledger. The run ends as the simulator's does: once every
/// initiator role reports [`WireRole::finished`] and nothing is pending
/// (every host has started, every frame sent has been handled by its
/// receiver's callback, and no timer is armed), or when the deadline
/// passes. Then every host is shut down gracefully.
pub fn run_loopback(spec: ServeSpec, cfg: &ServeConfig) -> Result<ServeOutcome, ServeError> {
    let n = spec.roles.len();
    let mut listeners = Vec::with_capacity(n);
    let mut peer_addrs = HashMap::new();
    for i in 0..n {
        let listener = TcpListener::bind("127.0.0.1:0").map_err(ServeError::Io)?;
        peer_addrs.insert(i as u16, listener.local_addr().map_err(ServeError::Io)?);
        listeners.push(listener);
    }
    if let Some(tx) = &cfg.port_report {
        let addrs: Vec<SocketAddr> = (0..n).map(|i| peer_addrs[&(i as u16)]).collect();
        let _ = tx.send(addrs);
    }

    let epoch = Instant::now();
    let obs = spec.world.obs_enabled();
    let world = Arc::new(Mutex::new(spec.world));
    let bus = Arc::new(LabelBus {
        taps: spec.taps,
        pending: AtomicUsize::new(n),
        ..LabelBus::default()
    });
    let shutdown = Arc::new(AtomicBool::new(false));
    let units = Arc::new(AtomicU64::new(0));
    let initiators_done = Arc::new(AtomicUsize::new(0));
    let expected_units = spec.expected_units;

    let mut initiators = 0usize;
    let mut handles = Vec::with_capacity(n);
    for (i, (rs, listener)) in spec.roles.into_iter().zip(listeners).enumerate() {
        if rs.kind == RoleKind::Initiator {
            initiators += 1;
        }
        let name = rs.name.clone();
        let shared = SharedRun {
            epoch,
            world: Some(world.clone()),
            obs,
            bus: Some(bus.clone()),
            shutdown: shutdown.clone(),
            units: units.clone(),
            initiators_done: initiators_done.clone(),
        };
        let host = RoleHost::new(i as u16, rs, listener, peer_addrs.clone(), shared, cfg);
        handles.push((name, std::thread::spawn(move || host.run())));
    }

    // Drive the run: initiators finish on their own, and what they set
    // off settles; every host is shut down gracefully afterwards. The
    // deadline bounds a wedged run.
    let deadline = Instant::now() + cfg.deadline;
    let quiet = || {
        initiators_done.load(Ordering::SeqCst) == initiators
            && bus.pending.load(Ordering::SeqCst) == 0
    };
    while !quiet() && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(1));
    }
    shutdown.store(true, Ordering::SeqCst);

    let mut first_err = None;
    for (name, handle) in handles {
        match handle.join() {
            Ok(Ok(())) => {}
            Ok(Err(e)) => first_err = first_err.or(Some(e)),
            Err(_) => first_err = first_err.or(Some(ServeError::RoleCrash(name))),
        }
    }
    if let Some(e) = first_err {
        return Err(e);
    }

    let world = Arc::try_unwrap(world)
        .map_err(|_| ServeError::RoleCrash("world still shared".into()))?
        .into_inner()
        .unwrap();
    Ok(ServeOutcome {
        world,
        completed_units: units.load(Ordering::SeqCst),
        expected_units,
    })
}

/// Run exactly one role of a wiring in this process, speaking real TCP
/// to peers given as `(peer_name, addr)` pairs. No shared world or label
/// bus exists across processes — bytes flow and the role's protocol
/// logic runs, while knowledge-table verification remains the loopback
/// twin's job. Returns the role's completed units when it finishes (an
/// initiator) or when the deadline passes (services run until then).
pub fn run_role(
    mut spec: ServeSpec,
    role_name: &str,
    listen: SocketAddr,
    peers: &[(String, SocketAddr)],
    cfg: &ServeConfig,
) -> Result<u64, ServeError> {
    let idx = spec
        .role_index(role_name)
        .ok_or_else(|| ServeError::UnknownRole(role_name.to_string()))?;
    let mut peer_addrs = HashMap::new();
    for (name, addr) in peers {
        let pi = spec
            .role_index(name)
            .ok_or_else(|| ServeError::UnknownRole(name.clone()))?;
        peer_addrs.insert(pi as u16, *addr);
    }
    let rs = spec.roles.swap_remove(idx);
    let listener = TcpListener::bind(listen).map_err(ServeError::Io)?;
    let shutdown = Arc::new(AtomicBool::new(false));
    let units = Arc::new(AtomicU64::new(0));
    let shared = SharedRun {
        epoch: Instant::now(),
        world: None,
        obs: false,
        bus: None,
        shutdown: shutdown.clone(),
        units: units.clone(),
        initiators_done: Arc::new(AtomicUsize::new(0)),
    };
    let host = RoleHost::new(idx as u16, rs, listener, peer_addrs, shared, cfg);
    // The deadline doubles as the service-role lifetime: without a
    // cross-process control plane, "graceful shutdown" for a lone
    // service process is a bounded run.
    let deadline_shutdown = shutdown.clone();
    let deadline = cfg.deadline;
    let timer = std::thread::spawn(move || {
        let end = Instant::now() + deadline;
        while Instant::now() < end {
            if deadline_shutdown.load(Ordering::SeqCst) {
                return;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        deadline_shutdown.store(true, Ordering::SeqCst);
    });
    let result = host.run();
    shutdown.store(true, Ordering::SeqCst);
    let _ = timer.join();
    result?;
    Ok(units.load(Ordering::SeqCst))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{Ipv4Addr, SocketAddrV4, TcpListener};

    /// Nobody listening and nobody ever will: the dial budget drains and
    /// the caller gets the typed exhaustion error, not a hang.
    #[test]
    fn dial_exhausts_into_typed_error() {
        // Bind-then-drop reserves a port that is closed by the time we dial.
        let addr = {
            let l = TcpListener::bind((Ipv4Addr::LOCALHOST, 0)).unwrap();
            l.local_addr().unwrap()
        };
        let mut rng = StdRng::seed_from_u64(7);
        let err = dial_with_backoff(addr, 3, 3, Duration::from_micros(100), &mut rng)
            .expect_err("closed port must not connect");
        match err {
            ServeError::DialExhausted {
                peer,
                attempts,
                last,
            } => {
                assert_eq!(peer, 3);
                assert_eq!(attempts, 3);
                assert_eq!(last.kind(), std::io::ErrorKind::ConnectionRefused);
            }
            other => panic!("expected DialExhausted, got {other}"),
        }
    }

    /// A lone initiator that arms a timer on start and completes its
    /// unit only when the timer fires: if the engine dropped timers, the
    /// run would hit its deadline with nothing done.
    #[test]
    fn loopback_fires_timers_armed_on_start() {
        use dcp_core::role::RoleKind;
        use dcp_runtime::seam::RoleSpec;

        struct Sleeper {
            armed_at: u64,
            fired_at: Option<u64>,
        }
        impl WireRole for Sleeper {
            fn on_start(&mut self, ctx: &mut WireCtx) {
                self.armed_at = ctx.now_us();
                ctx.set_timer(20_000, 42);
            }
            fn on_frame(&mut self, _: &mut WireCtx, _: PeerId, _: WireMsg) {}
            fn on_timer(&mut self, ctx: &mut WireCtx, token: u64) {
                if token == 42 && self.fired_at.is_none() {
                    self.fired_at = Some(ctx.now_us());
                    assert!(ctx.now_us() >= self.armed_at + 20_000, "fired early");
                    ctx.unit_done();
                }
            }
            fn finished(&self) -> bool {
                self.fired_at.is_some()
            }
        }

        let mut world = World::new();
        let org = world.add_org("o");
        let entity = world.add_entity("Sleeper", org, None);
        let spec = ServeSpec {
            scenario: "timer",
            world,
            roles: vec![RoleSpec {
                name: "sleeper".into(),
                entity,
                kind: RoleKind::Initiator,
                role: Box::new(Sleeper {
                    armed_at: 0,
                    fired_at: None,
                }),
            }],
            expected_units: 1,
            taps: Vec::new(),
        };
        let cfg = ServeConfig {
            deadline: Duration::from_secs(5),
            ..ServeConfig::default()
        };
        let outcome = run_loopback(spec, &cfg).expect("run completes");
        assert_eq!(outcome.completed_units, 1, "the timer fired exactly once");
        assert!(outcome.complete());
    }

    /// An initiator that is finished as soon as it has sent one frame,
    /// and a service that counts that frame only on a timer it arms on
    /// receipt: the run ends once the timer has fired, not when the
    /// initiator finishes. With no frame sent, it ends at once.
    #[test]
    fn loopback_runs_end_once_nothing_is_pending() {
        use dcp_core::role::RoleKind;
        use dcp_runtime::seam::RoleSpec;

        struct Kick(bool);
        impl WireRole for Kick {
            fn on_start(&mut self, ctx: &mut WireCtx) {
                if self.0 {
                    ctx.send(PeerId(1), WireMsg::data(vec![1], Label::Public));
                }
            }
            fn on_frame(&mut self, _: &mut WireCtx, _: PeerId, _: WireMsg) {}
            fn finished(&self) -> bool {
                true
            }
        }
        struct Later;
        impl WireRole for Later {
            fn on_frame(&mut self, ctx: &mut WireCtx, _: PeerId, _: WireMsg) {
                ctx.set_timer(50_000, 1);
            }
            fn on_timer(&mut self, ctx: &mut WireCtx, _: u64) {
                ctx.unit_done();
            }
        }

        for kick in [true, false] {
            let mut world = World::new();
            let org = world.add_org("o");
            let entity = world.add_entity("E", org, None);
            let role = |name: &str, kind, role| RoleSpec {
                name: name.into(),
                entity,
                kind,
                role,
            };
            let spec = ServeSpec {
                scenario: "settle",
                world,
                roles: vec![
                    role("kick", RoleKind::Initiator, Box::new(Kick(kick))),
                    role("later", RoleKind::Service, Box::new(Later)),
                ],
                expected_units: u64::from(kick),
                taps: Vec::new(),
            };
            let cfg = ServeConfig {
                deadline: Duration::from_secs(30),
                ..ServeConfig::default()
            };
            let t = Instant::now();
            let outcome = run_loopback(spec, &cfg).expect("run completes");
            assert_eq!(outcome.completed_units, u64::from(kick), "kick {kick}");
            assert!(t.elapsed() < Duration::from_secs(10), "kick {kick}: waited");
        }
    }

    /// A peer that binds late (restart, slow start) is reached by the
    /// retry loop instead of failing the whole run on the first refusal.
    #[test]
    fn dial_retries_until_late_listener_appears() {
        let addr = {
            let l = TcpListener::bind((Ipv4Addr::LOCALHOST, 0)).unwrap();
            l.local_addr().unwrap()
        };
        let bind_to = match addr {
            SocketAddr::V4(v4) => SocketAddrV4::new(*v4.ip(), v4.port()),
            SocketAddr::V6(_) => unreachable!("bound v4 above"),
        };
        let listener = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(40));
            let l = TcpListener::bind(bind_to).unwrap();
            // Hold the listener long enough for the dialer to land.
            let _ = l.accept();
        });
        let mut rng = StdRng::seed_from_u64(11);
        let stream = dial_with_backoff(addr, 9, 12, Duration::from_millis(10), &mut rng);
        assert!(
            stream.is_ok(),
            "late listener should be reached: {:?}",
            stream.err()
        );
        drop(stream);
        let _ = listener.join();
    }
}
