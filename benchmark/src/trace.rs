//! The traced run: a byte-transparent `Network`/`Stream` wrapper that
//! timestamps exchange boundaries on every connection end, and the span
//! arithmetic over what it recorded.
//!
//! Spans follow Distributed Execution Indexing: an exchange is named by its
//! path `(session, ordinal)` — the session is the fingerprint of the first
//! request frame a connection carries (unique per client session by
//! construction of the workloads, and replicated verbatim hop to hop), the
//! ordinal is the exchange's index on that connection. Client-, instance-
//! and backend-side records therefore join without touching the program and
//! without relying on arrival order.
//!
//! Every traced connection end yields one span per exchange: request seen →
//! response seen at that end. Its parent is the span of the next end
//! upstream (see [`Role::parent`]), so `client.exchange` is the root and a
//! span's self time is its duration minus the union of its children.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::BytesMut;
use parking_lot::Mutex;
use rddr_core::{Direction, Frame, Protocol};
use rddr_net::{
    BoxListener, BoxStream, Listener, Network, Readiness, Result, ServiceAddr, Stream, TryRead,
};
use rddr_proxy::ProtocolFactory;

/// Only every `SAMPLE`-th ordinal of a connection is kept. Coprime with the
/// pipeline depth, so sampled exchanges cycle through every batch position.
const SAMPLE: u64 = 7;

/// Which end of which link a connection end is.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum Role {
    /// The driver's end of client↔proxy: the root of every exchange.
    ClientExchange,
    /// The incoming proxy's end of client↔proxy.
    ProxyIn,
    /// The incoming proxy's end of proxy↔instance.
    ProxyInCall,
    /// The instance's end of proxy↔instance.
    InstanceServe,
    /// The instance's end of instance↔outgoing proxy.
    InstanceCall,
    /// The outgoing proxy's end of instance↔outgoing proxy.
    ProxyOut,
    /// The outgoing proxy's end of proxy↔backend.
    ProxyOutCall,
    /// The backend's end of proxy↔backend.
    BackendServe,
}

impl Role {
    pub fn name(self) -> &'static str {
        match self {
            Role::ClientExchange => "client.exchange",
            Role::ProxyIn => "proxy.in",
            Role::ProxyInCall => "proxy.in.call",
            Role::InstanceServe => "instance.serve",
            Role::InstanceCall => "instance.call",
            Role::ProxyOut => "proxy.out",
            Role::ProxyOutCall => "proxy.out.call",
            Role::BackendServe => "backend.serve",
        }
    }

    /// The role one hop upstream, whose span for the same `(session,
    /// ordinal)` (and the same instance, where both carry one) is the parent.
    pub fn parent(self) -> Option<Role> {
        match self {
            Role::ClientExchange => None,
            Role::ProxyIn => Some(Role::ClientExchange),
            Role::ProxyInCall => Some(Role::ProxyIn),
            Role::InstanceServe => Some(Role::ProxyInCall),
            Role::InstanceCall => Some(Role::InstanceServe),
            Role::ProxyOut => Some(Role::InstanceCall),
            Role::ProxyOutCall => Some(Role::ProxyOut),
            Role::BackendServe => Some(Role::ProxyOutCall),
        }
    }
}

/// The listen addresses of a deployment, by which connection ends are
/// classified.
#[derive(Clone, Default)]
pub struct Roles {
    pub proxy: Option<ServiceAddr>,
    pub instances: Vec<ServiceAddr>,
    pub outgoing: Option<ServiceAddr>,
    pub backend: Option<ServiceAddr>,
}

impl Roles {
    /// `(role, instance)` of the connection end that dialed (or accepted
    /// on) `addr`. `origin` is the dialing instance, if an instance dialed.
    fn classify(
        &self,
        addr: &ServiceAddr,
        dialer: bool,
        origin: Option<usize>,
    ) -> Option<(Role, Option<usize>)> {
        if self.proxy.as_ref() == Some(addr) {
            let role = if dialer {
                Role::ClientExchange
            } else {
                Role::ProxyIn
            };
            return Some((role, None));
        }
        if let Some(i) = self.instances.iter().position(|a| a == addr) {
            let role = if dialer {
                Role::ProxyInCall
            } else {
                Role::InstanceServe
            };
            return Some((role, Some(i)));
        }
        if self.outgoing.as_ref() == Some(addr) {
            // The outgoing proxy cannot tell which instance a member
            // connection belongs to; only the dialing end carries it.
            return Some(if dialer {
                (Role::InstanceCall, origin)
            } else {
                (Role::ProxyOut, None)
            });
        }
        if self.backend.as_ref() == Some(addr) {
            let role = if dialer {
                Role::ProxyOutCall
            } else {
                Role::BackendServe
            };
            return Some((role, None));
        }
        None
    }
}

/// Splits one direction of a connection into exchange units with the
/// deployment's own protocol module.
struct Framer {
    protocol: Box<dyn Protocol>,
    direction: Direction,
    buf: BytesMut,
    frames: Vec<Frame>,
    units: u64,
    /// FNV-1a of the first frame seen (requests: the session fingerprint).
    first: Option<u64>,
}

impl Framer {
    fn new(protocol: Box<dyn Protocol>, direction: Direction) -> Framer {
        Framer {
            protocol,
            direction,
            buf: BytesMut::new(),
            frames: Vec::new(),
            units: 0,
            first: None,
        }
    }

    /// Feeds bytes; pushes `at` onto `times` for every sampled unit they
    /// complete. Malformed traffic stops the framer (the wrapper still
    /// forwards every byte).
    fn feed(&mut self, bytes: &[u8], at: u64, times: &mut Vec<u64>) {
        self.buf.extend_from_slice(bytes);
        let Ok(frames) = self.protocol.split_frames(&mut self.buf, self.direction) else {
            self.buf.clear();
            return;
        };
        if self.first.is_none() {
            self.first = frames.first().map(|f| rddr_pgstore::fnv1a(&f.bytes));
        }
        self.frames.extend(frames);
        while let Some(take) = self.protocol.exchange_take(&self.frames, self.direction) {
            // Requests count frame by frame: the proxies fan each out as
            // its own exchange.
            let take = if self.direction == Direction::Request {
                1
            } else {
                take.max(1)
            };
            self.frames.drain(..take.min(self.frames.len()));
            if self.units.is_multiple_of(SAMPLE) {
                times.push(at);
            }
            self.units += 1;
        }
    }
}

struct ConnState {
    requests: Framer,
    responses: Framer,
    request_at: Vec<u64>,
    response_at: Vec<u64>,
    bytes: u64,
}

/// Everything recorded about one end of one connection.
struct ConnLog {
    addr: ServiceAddr,
    dialer: bool,
    origin: Option<usize>,
    state: Mutex<ConnState>,
}

/// Owns the trace of one run.
pub struct Tracer {
    epoch: Instant,
    protocol: ProtocolFactory,
    conns: Mutex<Vec<Arc<ConnLog>>>,
}

impl Tracer {
    pub fn new(protocol: ProtocolFactory) -> Arc<Tracer> {
        Arc::new(Tracer {
            epoch: Instant::now(),
            protocol,
            conns: Mutex::new(Vec::new()),
        })
    }

    /// Wraps `inner`; connections dialed through the result are attributed
    /// to instance `origin`, if given.
    pub fn wrap(
        self: &Arc<Self>,
        inner: Arc<dyn Network>,
        origin: Option<usize>,
    ) -> Arc<dyn Network> {
        Arc::new(TracedNet {
            inner,
            tracer: Arc::clone(self),
            origin,
        })
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn stream(
        self: &Arc<Self>,
        inner: BoxStream,
        addr: ServiceAddr,
        dialer: bool,
        origin: Option<usize>,
    ) -> BoxStream {
        let log = Arc::new(ConnLog {
            addr,
            dialer,
            origin,
            state: Mutex::new(ConnState {
                requests: Framer::new((self.protocol)(), Direction::Request),
                responses: Framer::new((self.protocol)(), Direction::Response),
                request_at: Vec::new(),
                response_at: Vec::new(),
                bytes: 0,
            }),
        });
        self.conns.lock().push(Arc::clone(&log));
        Box::new(TracedStream {
            inner,
            log,
            tracer: Arc::clone(self),
        })
    }

    /// Bytes carried over all links (each connection counted once, at its
    /// dialing end).
    pub fn link_bytes(&self) -> u64 {
        self.conns
            .lock()
            .iter()
            .filter(|c| c.dialer)
            .map(|c| c.state.lock().bytes)
            .sum()
    }

    /// Joins the per-connection records into spans.
    pub fn spans(&self, roles: &Roles) -> Vec<Span> {
        let conns = self.conns.lock();
        // Client sessions in dial order; their fingerprints name sessions.
        let mut sessions: BTreeMap<u64, u64> = BTreeMap::new();
        let classified: Vec<(Role, Option<usize>, &Arc<ConnLog>)> = conns
            .iter()
            .filter_map(|c| {
                let (role, instance) = roles.classify(&c.addr, c.dialer, c.origin)?;
                Some((role, instance, c))
            })
            .collect();
        for (role, _, c) in &classified {
            if *role == Role::ClientExchange {
                if let Some(fp) = c.state.lock().requests.first {
                    let next = sessions.len() as u64;
                    sessions.entry(fp).or_insert(next);
                }
            }
        }
        let mut spans = Vec::new();
        for (role, instance, c) in classified {
            let st = c.state.lock();
            let Some(session) = st.requests.first.and_then(|fp| sessions.get(&fp)) else {
                continue;
            };
            for (k, (&start, &end)) in st.request_at.iter().zip(&st.response_at).enumerate() {
                spans.push(Span {
                    role,
                    instance,
                    session: *session,
                    ordinal: k as u64 * SAMPLE,
                    start_ns: start,
                    end_ns: end.max(start),
                });
            }
        }
        spans
    }
}

/// One exchange as seen at one connection end.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    pub role: Role,
    pub instance: Option<usize>,
    pub session: u64,
    pub ordinal: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    /// Whether `self` is the parent of `child` in the span tree.
    pub fn is_parent_of(&self, child: &Span) -> bool {
        child.role.parent() == Some(self.role)
            && self.session == child.session
            && self.ordinal == child.ordinal
            && match (self.instance, child.instance) {
                (Some(a), Some(b)) => a == b,
                _ => true,
            }
    }
}

/// `span`'s duration minus the part of it its `children` cover (children
/// may overlap each other and stick out of the parent).
pub fn self_time(span: &Span, children: &[&Span]) -> u64 {
    let mut cuts: Vec<(u64, u64)> = children
        .iter()
        .map(|c| (c.start_ns.max(span.start_ns), c.end_ns.min(span.end_ns)))
        .filter(|(s, e)| e > s)
        .collect();
    cuts.sort_unstable();
    let mut covered = 0;
    let mut reach = span.start_ns;
    for (s, e) in cuts {
        let s = s.max(reach);
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    span.duration() - covered
}

/// The spans of one exchange `(session, ordinal)`, grouped for analysis.
pub struct Exchange<'a> {
    pub spans: Vec<&'a Span>,
}

impl<'a> Exchange<'a> {
    pub fn of(&self, role: Role) -> impl Iterator<Item = &'a Span> + '_ {
        self.spans.iter().copied().filter(move |s| s.role == role)
    }

    pub fn children(&self, parent: &Span) -> Vec<&'a Span> {
        self.spans
            .iter()
            .copied()
            .filter(|s| parent.is_parent_of(s))
            .collect()
    }
}

/// Groups spans by exchange, keeping only exchanges the client saw answered.
pub fn exchanges(spans: &[Span]) -> Vec<Exchange<'_>> {
    let mut by_key: BTreeMap<(u64, u64), Vec<&Span>> = BTreeMap::new();
    for s in spans {
        by_key.entry((s.session, s.ordinal)).or_default().push(s);
    }
    by_key
        .into_values()
        .filter(|v| v.iter().any(|s| s.role == Role::ClientExchange))
        .map(|spans| Exchange { spans })
        .collect()
}

/// Writes `exchanges`' spans as JSON
/// (`{name, start_ns, end_ns, parent, session, ordinal, instance}`).
pub fn write_json(path: &std::path::Path, exchanges: &[Exchange<'_>]) -> std::io::Result<()> {
    use std::io::Write;
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "[")?;
    let mut first = true;
    for ex in exchanges {
        for s in &ex.spans {
            let parent = s
                .role
                .parent()
                .map_or("null".to_string(), |p| format!("\"{}\"", p.name()));
            let instance = s.instance.map_or("null".to_string(), |i| i.to_string());
            if !first {
                writeln!(out, ",")?;
            }
            first = false;
            write!(
                out,
                " {{\"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \
                 \"session\": {}, \"ordinal\": {}, \"instance\": {instance}}}",
                s.role.name(),
                s.start_ns,
                s.end_ns,
                s.session,
                s.ordinal
            )?;
        }
    }
    writeln!(out, "\n]")?;
    out.flush()
}

struct TracedNet {
    inner: Arc<dyn Network>,
    tracer: Arc<Tracer>,
    origin: Option<usize>,
}

impl Network for TracedNet {
    fn listen(&self, addr: &ServiceAddr) -> Result<BoxListener> {
        Ok(Box::new(TracedListener {
            inner: self.inner.listen(addr)?,
            tracer: Arc::clone(&self.tracer),
        }))
    }

    fn dial(&self, addr: &ServiceAddr) -> Result<BoxStream> {
        let conn = self.inner.dial(addr)?;
        Ok(self.tracer.stream(conn, addr.clone(), true, self.origin))
    }

    fn unbind_addr(&self, addr: &ServiceAddr) {
        self.inner.unbind_addr(addr);
    }
}

struct TracedListener {
    inner: BoxListener,
    tracer: Arc<Tracer>,
}

impl Listener for TracedListener {
    fn accept(&mut self) -> Result<BoxStream> {
        let conn = self.inner.accept()?;
        Ok(self
            .tracer
            .stream(conn, self.inner.local_addr(), false, None))
    }

    fn local_addr(&self) -> ServiceAddr {
        self.inner.local_addr()
    }
}

struct TracedStream {
    inner: BoxStream,
    log: Arc<ConnLog>,
    tracer: Arc<Tracer>,
}

impl TracedStream {
    /// Records `bytes` moving `inbound` (read) or outbound (written) at `at`.
    fn record(&self, bytes: &[u8], inbound: bool, at: u64) {
        let mut guard = self.log.state.lock();
        let st = &mut *guard;
        st.bytes += bytes.len() as u64;
        // A dialer writes requests and reads responses; an acceptor the
        // other way round.
        if inbound == self.log.dialer {
            st.responses.feed(bytes, at, &mut st.response_at);
        } else {
            st.requests.feed(bytes, at, &mut st.request_at);
        }
    }
}

impl Stream for TracedStream {
    fn read(&mut self, buf: &mut [u8]) -> Result<usize> {
        let n = self.inner.read(buf)?;
        self.record(&buf[..n], true, self.tracer.now());
        Ok(n)
    }

    fn write_all(&mut self, buf: &[u8]) -> Result<()> {
        let at = self.tracer.now();
        self.inner.write_all(buf)?;
        self.record(buf, false, at);
        Ok(())
    }

    fn shutdown(&mut self) {
        self.inner.shutdown();
    }

    fn set_read_timeout(&mut self, timeout: Option<Duration>) {
        self.inner.set_read_timeout(timeout);
    }

    fn peer(&self) -> String {
        self.inner.peer()
    }

    fn try_clone(&self) -> Result<BoxStream> {
        Ok(Box::new(TracedStream {
            inner: self.inner.try_clone()?,
            log: Arc::clone(&self.log),
            tracer: Arc::clone(&self.tracer),
        }))
    }

    fn poll_register(&mut self, readiness: Readiness) -> bool {
        self.inner.poll_register(readiness)
    }

    fn try_read(&mut self, buf: &mut [u8]) -> Result<TryRead> {
        let res = self.inner.try_read(buf)?;
        if let TryRead::Data(n) = res {
            self.record(&buf[..n], true, self.tracer.now());
        }
        Ok(res)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rddr_core::protocol::LineProtocol;
    use rddr_net::{Poller, SimNet, TcpNet, Token};

    fn span(role: Role, instance: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            role,
            instance,
            session: 0,
            ordinal: 0,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        let parent = span(Role::ProxyIn, None, 100, 200);
        // 110–150 and 130–170 overlap (union 60); 190–230 sticks out (10
        // inside); 20–50 lies wholly outside.
        let kids = [
            span(Role::ProxyInCall, Some(0), 110, 150),
            span(Role::ProxyInCall, Some(1), 130, 170),
            span(Role::ProxyInCall, Some(2), 190, 230),
            span(Role::ProxyInCall, Some(2), 20, 50),
        ];
        let refs: Vec<&Span> = kids.iter().collect();
        assert_eq!(self_time(&parent, &refs), 100 - 60 - 10);
        assert_eq!(self_time(&parent, &[]), 100);
        // A child covering the parent entirely leaves no self time.
        let all = span(Role::ProxyInCall, Some(0), 0, 500);
        assert_eq!(self_time(&parent, &[&all]), 0);
    }

    #[test]
    fn parents_match_on_instance_only_where_both_ends_carry_one() {
        let call = span(Role::ProxyInCall, Some(1), 0, 10);
        assert!(call.is_parent_of(&span(Role::InstanceServe, Some(1), 2, 8)));
        assert!(!call.is_parent_of(&span(Role::InstanceServe, Some(2), 2, 8)));
        let proxy = span(Role::ProxyIn, None, 0, 10);
        assert!(proxy.is_parent_of(&call));
        assert!(!proxy.is_parent_of(&span(Role::InstanceServe, Some(1), 2, 8)));
    }

    /// Echo `lines` through a traced fabric; the wrapper must deliver the
    /// exact bytes, keep readiness registration working (the reactor path),
    /// and record one span per sampled exchange at both ends.
    fn echo_through(base: Arc<dyn Network>, want: ServiceAddr) {
        let protocol: ProtocolFactory = Arc::new(|| Box::new(LineProtocol::new()));
        let tracer = Tracer::new(protocol);
        let net = tracer.wrap(base, None);
        let mut listener = net.listen(&want).unwrap();
        let addr = listener.local_addr();
        let server = std::thread::spawn(move || {
            let mut conn = listener.accept().unwrap();
            let mut buf = [0u8; 256];
            loop {
                match conn.read(&mut buf) {
                    Ok(0) | Err(_) => return,
                    Ok(n) => conn.write_all(&buf[..n]).unwrap(),
                }
            }
        });
        let poller = Poller::new();
        let mut conn = net.dial(&addr).unwrap();
        assert!(
            conn.poll_register(poller.readiness(Token(9))),
            "registration must pass through the wrapper"
        );
        let mut sent = Vec::new();
        let mut got = Vec::new();
        let mut ready = Vec::new();
        let mut chunk = [0u8; 256];
        for i in 0..20 {
            let line = format!("line-{i}-\u{1f}\0binary\n").into_bytes();
            conn.write_all(&line).unwrap();
            sent.extend_from_slice(&line);
            while got.len() < sent.len() {
                assert!(poller.poll(&mut ready, Some(Duration::from_secs(5))) > 0);
                assert_eq!(ready, vec![Token(9)]);
                while let TryRead::Data(n) = conn.try_read(&mut chunk).unwrap() {
                    got.extend_from_slice(&chunk[..n]);
                }
            }
        }
        assert_eq!(got, sent, "wrapper must be byte-transparent");
        poller.deregister(Token(9));
        drop(conn);
        server.join().unwrap();

        let roles = Roles {
            proxy: Some(addr),
            ..Roles::default()
        };
        let spans = tracer.spans(&roles);
        let sampled = 20usize.div_ceil(SAMPLE as usize);
        for role in [Role::ClientExchange, Role::ProxyIn] {
            let mine: Vec<&Span> = spans.iter().filter(|s| s.role == role).collect();
            assert_eq!(mine.len(), sampled, "{role:?}");
            assert!(mine
                .iter()
                .all(|s| s.session == 0 && s.end_ns >= s.start_ns));
        }
        assert_eq!(tracer.link_bytes(), 2 * sent.len() as u64);
        // The acceptor's span nests inside the dialer's.
        let ex = exchanges(&spans);
        assert_eq!(ex.len(), sampled);
        let root = ex[0].of(Role::ClientExchange).next().unwrap();
        let kids = ex[0].children(root);
        assert_eq!(kids.len(), 1);
        assert!(self_time(root, &kids) <= root.duration());
    }

    #[test]
    fn traced_net_is_transparent_and_registers_on_simnet() {
        echo_through(Arc::new(SimNet::new()), ServiceAddr::new("echo", 7));
    }

    #[test]
    fn traced_net_is_transparent_and_registers_on_tcp() {
        echo_through(Arc::new(TcpNet::new()), ServiceAddr::new("127.0.0.1", 0));
    }
}
