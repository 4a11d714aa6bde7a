//! Checkpoint/resume for the population engine.
//!
//! A checkpoint is a complete, self-describing byte snapshot of an
//! [`Engine`](crate::Engine): spec, topology, seed, RNG state, clock,
//! the arrival stream's clock, sequence counter, streaming stats,
//! in-progress ingress batches, and every pending event of the hop lane,
//! the wheel and the arrival stream, merged in `(time, seq)` order.
//! Restoring and running to the end must produce a report
//! byte-identical to a straight-through run — CI diffs exactly that.
//!
//! The format is hand-rolled little-endian ("DCPW" magic + version):
//! the vendored `serde`/`serde_json` stand-ins are serialize-only, so
//! there is no parser to lean on, and an explicit codec keeps the
//! snapshot stable across compiler and library versions anyway.
//!
//! [`Engine::restore`] fails closed. It parses every field first, then
//! checks each dimension against the data that carries it, each index,
//! time and sequence number the engine would use, and each statistics
//! counter against the others and the pending events, and only then
//! allocates the world. Bytes that fail any check are a typed
//! [`CheckpointError`].

use std::collections::BTreeMap;

use crate::engine::{Engine, PopEvent, Stats, Topology, ANON_BUCKETS, LATENCY_BUCKETS};
use crate::rng::SplitMix64;
use crate::spec::WorldSpec;

const MAGIC: u32 = u32::from_le_bytes(*b"DCPW");
const VERSION: u32 = 3;

/// More sequence numbers than any run could use: a century and a half at
/// 10⁹ events per second. Every counter is at most `next_seq`, so below
/// this bound each has room to grow for longer than a run lasts.
const MAX_SEQ: u64 = 1 << 62;

/// Why [`Engine::restore`] refused a checkpoint — always an error, never
/// a panic, and never an engine that would index out of range later.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CheckpointError {
    /// The bytes end inside a field, or a length field runs past them.
    Truncated {
        /// Offset of the field that does not fit.
        at: usize,
    },
    /// Bytes remain after the last field.
    Trailing {
        /// How many.
        bytes: usize,
    },
    /// Not a `DCPW` checkpoint.
    BadMagic,
    /// A `DCPW` version this build does not read.
    Version(u32),
    /// The topology name is not UTF-8.
    BadName,
    /// A pending event with an unknown tag.
    EventTag(u8),
    /// The spec and topology do not describe a world (the reason
    /// [`Engine::new`] would give).
    World(String),
    /// A vector's length disagrees with the spec or topology.
    Dimension(&'static str),
    /// An index, time or sequence number outside the world.
    OutOfRange(&'static str),
    /// Statistics counters that disagree with each other or with the
    /// pending events: no run could hold them.
    Counter(&'static str),
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Truncated { at } => write!(f, "checkpoint truncated at byte {at}"),
            CheckpointError::Trailing { bytes } => {
                write!(f, "checkpoint has {bytes} trailing bytes")
            }
            CheckpointError::BadMagic => write!(f, "not a dcp-worlds checkpoint (bad magic)"),
            CheckpointError::Version(v) => write!(f, "unsupported checkpoint version {v}"),
            CheckpointError::BadName => write!(f, "checkpoint topology name is not UTF-8"),
            CheckpointError::EventTag(t) => write!(f, "unknown event tag {t}"),
            CheckpointError::World(why) => write!(f, "checkpoint describes no world: {why}"),
            CheckpointError::Dimension(what) => {
                write!(f, "checkpoint {what} do not match the spec and topology")
            }
            CheckpointError::OutOfRange(what) => write!(f, "checkpoint {what} out of range"),
            CheckpointError::Counter(what) => {
                write!(f, "checkpoint {what} counters are ones no run could hold")
            }
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<CheckpointError> for String {
    fn from(e: CheckpointError) -> String {
        e.to_string()
    }
}

struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    fn new() -> Writer {
        Writer { buf: Vec::new() }
    }
    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }
    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn u128(&mut self, v: u128) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }
    fn bool(&mut self, v: bool) {
        self.u8(v as u8);
    }
    fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.buf.extend_from_slice(s.as_bytes());
    }
    fn vec_u64(&mut self, v: &[u64]) {
        self.u64(v.len() as u64);
        for &x in v {
            self.u64(x);
        }
    }
    fn vec_u32(&mut self, v: &[u32]) {
        self.u64(v.len() as u64);
        for &x in v {
            self.u32(x);
        }
    }
}

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, pos: 0 }
    }
    fn take(&mut self, n: usize) -> Result<&'a [u8], CheckpointError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or(CheckpointError::Truncated { at: self.pos })?;
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }
    fn u8(&mut self) -> Result<u8, CheckpointError> {
        Ok(self.take(1)?[0])
    }
    fn u32(&mut self) -> Result<u32, CheckpointError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }
    fn u64(&mut self) -> Result<u64, CheckpointError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
    fn u128(&mut self) -> Result<u128, CheckpointError> {
        Ok(u128::from_le_bytes(self.take(16)?.try_into().unwrap()))
    }
    fn f64(&mut self) -> Result<f64, CheckpointError> {
        Ok(f64::from_bits(self.u64()?))
    }
    fn bool(&mut self) -> Result<bool, CheckpointError> {
        Ok(self.u8()? != 0)
    }
    fn len(&mut self) -> Result<usize, CheckpointError> {
        let at = self.pos;
        let n = self.u64()?;
        // A length can never exceed the bytes that remain — reject early
        // so corrupt lengths fail cleanly instead of attempting huge
        // allocations.
        if n > (self.buf.len() - self.pos) as u64 {
            return Err(CheckpointError::Truncated { at });
        }
        Ok(n as usize)
    }
    fn str(&mut self) -> Result<String, CheckpointError> {
        let n = self.len()?;
        String::from_utf8(self.take(n)?.to_vec()).map_err(|_| CheckpointError::BadName)
    }
    /// A length-prefixed list of `item`s.
    fn list<T>(
        &mut self,
        mut item: impl FnMut(&mut Self) -> Result<T, CheckpointError>,
    ) -> Result<Vec<T>, CheckpointError> {
        let n = self.len()?;
        (0..n).map(|_| item(self)).collect()
    }
    fn vec_u64(&mut self) -> Result<Vec<u64>, CheckpointError> {
        self.list(Self::u64)
    }
    fn vec_u32(&mut self) -> Result<Vec<u32>, CheckpointError> {
        self.list(Self::u32)
    }
    fn done(&self) -> Result<(), CheckpointError> {
        match self.buf.len() - self.pos {
            0 => Ok(()),
            bytes => Err(CheckpointError::Trailing { bytes }),
        }
    }
}

fn write_pending(w: &mut Writer, time: u64, seq: u64, ev: PopEvent) {
    w.u64(time);
    w.u64(seq);
    match ev {
        PopEvent::Arrival => w.u8(0),
        PopEvent::Up {
            user,
            name,
            size,
            hop,
            sent_us,
        } => {
            w.u8(1);
            w.u32(user);
            w.u32(name);
            w.u32(size);
            w.u8(hop);
            w.u64(sent_us);
        }
        PopEvent::Down {
            user,
            size,
            hop,
            sent_us,
        } => {
            w.u8(2);
            w.u32(user);
            w.u32(size);
            w.u8(hop);
            w.u64(sent_us);
        }
        PopEvent::Flush { ingress } => {
            w.u8(3);
            w.u32(ingress);
        }
    }
}

fn read_event(r: &mut Reader) -> Result<PopEvent, CheckpointError> {
    Ok(match r.u8()? {
        0 => PopEvent::Arrival,
        1 => PopEvent::Up {
            user: r.u32()?,
            name: r.u32()?,
            size: r.u32()?,
            hop: r.u8()?,
            sent_us: r.u64()?,
        },
        2 => PopEvent::Down {
            user: r.u32()?,
            size: r.u32()?,
            hop: r.u8()?,
            sent_us: r.u64()?,
        },
        3 => PopEvent::Flush { ingress: r.u32()? },
        t => return Err(CheckpointError::EventTag(t)),
    })
}

/// Fail unless `ok`.
fn check(ok: bool, err: CheckpointError) -> Result<(), CheckpointError> {
    if ok {
        Ok(())
    } else {
        Err(err)
    }
}

/// The statistics counters, each against the others and the pending
/// events, as every run keeps them. Together with `MAX_SEQ` this leaves
/// each counter room to grow: a near-maximal one disagrees with the rest.
fn check_counters(
    st: &Stats,
    batches: &[Vec<(u32, u32, u32, u64)>],
    pending: &[(u64, u64, PopEvent)],
    events: u64,
    next_seq: u64,
    max_latency: u128,
) -> Result<(), CheckpointError> {
    let ctr = CheckpointError::Counter;
    let wide = u128::from;
    let sum = |v: &[u64]| v.iter().map(|&x| wide(x)).sum::<u128>();
    let mut arrivals_and_flushes = 0u128;
    let mut flushes = vec![0u64; batches.len()];
    let mut in_flight = BTreeMap::<u32, u64>::new();
    for &(_, _, ev) in pending {
        match ev {
            PopEvent::Arrival => arrivals_and_flushes += 1,
            PopEvent::Flush { ingress } => {
                arrivals_and_flushes += 1;
                flushes[ingress as usize] += 1;
            }
            PopEvent::Up { .. } => {}
            PopEvent::Down { size, .. } => *in_flight.entry(size).or_default() += 1,
        }
    }
    // Every sequence number went to an event that was handled or is
    // pending: a hop transit (a message), an arrival (a query once
    // handled) or a flush (a batch once handled).
    check(
        next_seq <= MAX_SEQ
            && wide(next_seq) == wide(events) + pending.len() as u128
            && wide(next_seq)
                == wide(st.messages)
                    + wide(st.queries_sent)
                    + wide(st.batches)
                    + arrivals_and_flushes,
        ctr("sequence"),
    )?;
    check(
        st.queries_answered <= st.queries_sent
            && wide(st.queries_sent) + wide(st.batches) <= wide(events),
        ctr("query"),
    )?;
    // An ingress holds a batch exactly while its one flush is pending.
    check(
        st.batches <= st.batch_users_sum
            && st.batch_users_sum <= st.queries_sent
            && sum(&st.anon_hist) == wide(st.batches)
            && batches
                .iter()
                .zip(&flushes)
                .all(|(batch, &n)| n == u64::from(!batch.is_empty())),
        ctr("batch"),
    )?;
    check(
        st.linkage_attempts == st.queries_answered && st.linkage_linked <= st.linkage_attempts,
        ctr("linkage"),
    )?;
    check(
        sum(&st.latency_hist) == wide(st.queries_answered)
            && st.latency_sum_us <= wide(st.queries_answered).saturating_mul(max_latency),
        ctr("latency"),
    )?;
    // Each resolver's total is its users' counts (less, only where a count
    // has saturated), and it has seen exactly the users with a count;
    // every response it sent was answered or is still in flight, where
    // the linkage observer counts it by size.
    let resolvers = st.resolver_queries.len();
    for (r, (&total, seen)) in st
        .resolver_queries
        .iter()
        .zip(&st.resolver_seen)
        .enumerate()
    {
        let (mut counted, mut active, mut capped) = (0u128, 0u64, false);
        for (u, &n) in st
            .per_user_resolver
            .iter()
            .skip(r)
            .step_by(resolvers)
            .enumerate()
        {
            let bit = seen[u / 64] >> (u % 64) & 1 == 1;
            check(bit == (n > 0), ctr("resolver"))?;
            counted += u128::from(n);
            active += u64::from(n > 0);
            capped |= n == u32::MAX;
        }
        let bits: u64 = seen.iter().map(|w| u64::from(w.count_ones())).sum();
        check(
            (counted == wide(total) || capped && counted < wide(total)) && bits == active,
            ctr("resolver"),
        )?;
    }
    let downs: u64 = in_flight.values().sum();
    check(
        sum(&st.resolver_queries) == wide(st.queries_answered) + wide(downs)
            && sum(&st.resolver_queries) <= wide(st.queries_sent)
            && in_flight.len() == st.inflight_sizes.len()
            && in_flight
                .iter()
                .zip(&st.inflight_sizes)
                .all(|((a, &n), (b, &m))| a == b && n == u64::from(m)),
        ctr("in-flight"),
    )
}

impl Engine {
    /// Serialize the complete engine state. Safe at any event boundary
    /// (between [`run_until_events`](Engine::run_until_events) calls).
    pub fn checkpoint(&self) -> Vec<u8> {
        debug_assert!(
            self.batch_seen.iter().all(|&w| w == 0),
            "a flush left bits set"
        );
        let mut w = Writer::new();
        w.u32(MAGIC);
        w.u32(VERSION);

        // Spec — the workload tables are rebuilt from this on restore.
        let s = &self.spec;
        w.u64(s.users);
        w.u64(s.names);
        w.f64(s.name_exponent);
        w.f64(s.user_exponent);
        w.f64(s.rate_hz);
        w.f64(s.diurnal_amplitude);
        w.u64(s.diurnal_period_us);
        w.u64(s.duration_us);

        // Topology.
        let t = &self.topo;
        w.str(&t.scenario);
        w.u32(t.hops);
        w.u32(t.ingresses);
        w.u64(t.batch_window_us);
        w.u64(t.pad_to);
        w.u32(t.resolvers);
        w.bool(t.stripe_by_name);
        w.u64(t.link_us);
        w.u64(t.query_bytes);
        w.u64(t.resp_bytes);

        // Dynamic state.
        w.u64(self.seed);
        w.u64(self.rng.state());
        w.u64(self.now_us);
        w.f64(self.clock_us);
        w.u64(self.next_seq);
        w.u64(self.events);

        // Streaming stats.
        let st = &self.stats;
        w.u64(st.queries_sent);
        w.u64(st.queries_answered);
        w.u64(st.messages);
        w.u64(st.batches);
        w.u64(st.batch_users_sum);
        w.vec_u64(&st.anon_hist);
        w.u64(st.linkage_attempts);
        w.u64(st.linkage_linked);
        w.vec_u64(&st.latency_hist);
        w.u128(st.latency_sum_us);
        w.vec_u64(&st.resolver_queries);
        w.u64(st.resolver_seen.len() as u64);
        for bits in &st.resolver_seen {
            w.vec_u64(bits);
        }
        w.vec_u32(&st.per_user_resolver);
        w.u64(st.inflight_sizes.len() as u64);
        for (&size, &count) in &st.inflight_sizes {
            w.u32(size);
            w.u32(count);
        }

        // In-progress ingress batches.
        w.u64(self.batches.len() as u64);
        for batch in &self.batches {
            w.u64(batch.len() as u64);
            for &(user, name, size, sent_us) in batch {
                w.u32(user);
                w.u32(name);
                w.u32(size);
                w.u64(sent_us);
            }
        }

        // Pending events of every source, in canonical (time, seq) order.
        let mut pending: Vec<(u64, u64, PopEvent)> = self
            .wheel
            .snapshot()
            .into_iter()
            .map(|(t, s, ingress)| (t, s, PopEvent::Flush { ingress }))
            .chain(self.lane.iter().copied())
            .chain(self.arrival.map(|(t, s)| (t, s, PopEvent::Arrival)))
            .collect();
        pending.sort_unstable_by_key(|&(t, s, _)| (t, s));
        w.u64(pending.len() as u64);
        for (time, seq, ev) in pending {
            write_pending(&mut w, time, seq, ev);
        }

        w.buf
    }

    /// Rebuild an engine from [`checkpoint`](Engine::checkpoint) bytes.
    /// The restored engine continues the run bit-for-bit: its final
    /// report is byte-identical to a never-paused run's. Bytes that no
    /// checkpoint could hold are a [`CheckpointError`].
    pub fn restore(bytes: &[u8]) -> Result<Engine, CheckpointError> {
        let mut r = Reader::new(bytes);
        if r.u32()? != MAGIC {
            return Err(CheckpointError::BadMagic);
        }
        let version = r.u32()?;
        if version != VERSION {
            return Err(CheckpointError::Version(version));
        }

        let spec = WorldSpec {
            users: r.u64()?,
            names: r.u64()?,
            name_exponent: r.f64()?,
            user_exponent: r.f64()?,
            rate_hz: r.f64()?,
            diurnal_amplitude: r.f64()?,
            diurnal_period_us: r.u64()?,
            duration_us: r.u64()?,
        };
        let topo = Topology {
            scenario: r.str()?,
            hops: r.u32()?,
            ingresses: r.u32()?,
            batch_window_us: r.u64()?,
            pad_to: r.u64()?,
            resolvers: r.u32()?,
            stripe_by_name: r.bool()?,
            link_us: r.u64()?,
            query_bytes: r.u64()?,
            resp_bytes: r.u64()?,
        };
        let seed = r.u64()?;
        let rng = SplitMix64::from_state(r.u64()?);
        let now_us = r.u64()?;
        let clock_us = r.f64()?;
        let next_seq = r.u64()?;
        let events = r.u64()?;
        let stats = Stats {
            queries_sent: r.u64()?,
            queries_answered: r.u64()?,
            messages: r.u64()?,
            batches: r.u64()?,
            batch_users_sum: r.u64()?,
            anon_hist: r.vec_u64()?,
            linkage_attempts: r.u64()?,
            linkage_linked: r.u64()?,
            latency_hist: r.vec_u64()?,
            latency_sum_us: r.u128()?,
            resolver_queries: r.vec_u64()?,
            resolver_seen: r.list(Reader::vec_u64)?,
            per_user_resolver: r.vec_u32()?,
            inflight_sizes: r
                .list(|r| Ok((r.u32()?, r.u32()?)))?
                .into_iter()
                .collect::<BTreeMap<_, _>>(),
        };
        let batches = r.list(|r| r.list(|r| Ok((r.u32()?, r.u32()?, r.u32()?, r.u64()?))))?;
        let pending = r.list(|r| Ok((r.u64()?, r.u64()?, read_event(r)?)))?;
        r.done()?;

        // Every dimension against the data that carries it, before the
        // world allocates anything sized by the spec.
        let users = spec.users;
        let resolvers = topo.resolvers as usize;
        let dim = CheckpointError::Dimension;
        check(
            stats.anon_hist.len() == ANON_BUCKETS && stats.latency_hist.len() == LATENCY_BUCKETS,
            dim("histograms"),
        )?;
        check(
            usize::try_from(users)
                .ok()
                .and_then(|u| u.checked_mul(resolvers))
                == Some(stats.per_user_resolver.len()),
            dim("per-user counts"),
        )?;
        check(
            stats.resolver_queries.len() == resolvers
                && stats.resolver_seen.len() == resolvers
                && stats
                    .resolver_seen
                    .iter()
                    .all(|bits| bits.len() as u64 == users.div_ceil(64)),
            dim("resolver stats"),
        )?;
        check(batches.len() == topo.ingresses as usize, dim("batches"))?;

        // Every index and time the restored engine would use. Pending
        // events must be in strict (time, seq) order at or after the
        // clock, and hop transits no later than one link from it: the
        // lane's order rests on both.
        // A query's latency is at most a link per hop each way plus one
        // batch window, so every send time lies that close behind.
        let max_latency = 2 * (u128::from(topo.hops) + 1) * u128::from(topo.link_us)
            + u128::from(topo.batch_window_us);
        let sent_before =
            |time: u64, sent_us: u64| sent_us <= time && u128::from(time - sent_us) <= max_latency;
        let range = CheckpointError::OutOfRange;
        let hop_due = now_us.saturating_add(topo.link_us);
        let mut prev = None;
        for &(time, seq, ref ev) in &pending {
            check(
                time >= now_us && seq < next_seq && prev < Some((time, seq)),
                range("pending event order"),
            )?;
            prev = Some((time, seq));
            let in_world = match *ev {
                // Checked against the stream's clock below.
                PopEvent::Arrival => true,
                PopEvent::Up {
                    user, hop, sent_us, ..
                }
                | PopEvent::Down {
                    user, hop, sent_us, ..
                } => {
                    u64::from(user) < users
                        && u32::from(hop) <= topo.hops
                        && time <= hop_due
                        && sent_before(time, sent_us)
                }
                PopEvent::Flush { ingress } => ingress < topo.ingresses,
            };
            check(in_world, range("pending event"))?;
        }
        check(
            batches.iter().flatten().all(|&(user, _, _, sent_us)| {
                u64::from(user) < users && sent_before(now_us, sent_us)
            }),
            range("batched user"),
        )?;
        // The arrival stream holds one arrival, at its clock rounded up,
        // while the clock is short of the end, and none once it is there.
        let end_us = spec.duration_us as f64;
        check((0.0..=end_us).contains(&clock_us), range("arrival clock"))?;
        let mut arrivals = pending.iter().filter(|p| p.2 == PopEvent::Arrival);
        let arrival = arrivals.next().map(|&(time, seq, _)| (time, seq));
        check(arrivals.next().is_none(), range("pending arrivals"))?;
        check(
            match arrival {
                Some((time, _)) => time < spec.duration_us && clock_us.ceil() == time as f64,
                None => clock_us == end_us,
            },
            range("pending arrival"),
        )?;
        check_counters(&stats, &batches, &pending, events, next_seq, max_latency)?;

        // Allocate last: the workload tables are a pure function of the
        // spec, rebuilt instead of stored.
        let mut e = Engine::empty(&spec, &topo, seed).map_err(CheckpointError::World)?;
        e.rng = rng;
        e.now_us = now_us;
        e.clock_us = clock_us;
        e.arrival = arrival;
        e.next_seq = next_seq;
        e.events = events;
        e.stats = stats;
        e.batches = batches;
        for (time, seq, ev) in pending {
            // In order, so the lane stays sorted; a fresh wheel (cursor
            // 0) keeps the order too, since nothing is behind the clock.
            match ev {
                PopEvent::Up { .. } | PopEvent::Down { .. } => e.lane.push_back((time, seq, ev)),
                PopEvent::Flush { ingress } => e.push_wheel(time, seq, ingress),
                PopEvent::Arrival => {}
            }
        }
        Ok(e)
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;
    use crate::spec::WorldSpec;

    fn spec() -> WorldSpec {
        WorldSpec::smoke()
            .users(80)
            .names(40)
            .duration_us(3_000_000)
    }

    fn straight_report(topo: &Topology, seed: u64) -> crate::PopReport {
        let mut e = Engine::new(&spec(), topo, seed).unwrap();
        e.run_to_end();
        e.report()
    }

    #[test]
    fn resume_matches_straight_run_exactly() {
        for name in ["odoh", "mixnet", "direct"] {
            let topo = Topology::by_name(name).unwrap();
            let straight = straight_report(&topo, 17);

            let mut e = Engine::new(&spec(), &topo, 17).unwrap();
            e.run_until_events(e.spec.users / 2); // pause mid-world
            let bytes = e.checkpoint();
            drop(e);

            let mut resumed = Engine::restore(&bytes).unwrap();
            resumed.run_to_end();
            assert_eq!(resumed.report(), straight, "{name} resume must be exact");
        }
    }

    #[test]
    fn chained_checkpoints_stay_exact() {
        let topo = Topology::odoh();
        let straight = straight_report(&topo, 5);

        let mut e = Engine::new(&spec(), &topo, 5).unwrap();
        let mut budget = 300u64;
        loop {
            let done = e.run_until_events(budget);
            // Round-trip through bytes at every pause.
            e = Engine::restore(&e.checkpoint()).unwrap();
            if done {
                break;
            }
            budget += 300;
        }
        assert_eq!(e.report(), straight);
    }

    #[test]
    fn checkpoint_bytes_are_deterministic() {
        let topo = Topology::mpr();
        let snap = |seed| {
            let mut e = Engine::new(&spec(), &topo, seed).unwrap();
            e.run_until_events(1000);
            e.checkpoint()
        };
        assert_eq!(snap(9), snap(9));
        assert_ne!(snap(9), snap(10));
    }

    #[test]
    fn restore_rejects_garbage() {
        let err = |bytes: &[u8]| Engine::restore(bytes).unwrap_err();
        assert_eq!(err(b""), CheckpointError::Truncated { at: 0 });
        assert_eq!(err(b"nope"), CheckpointError::BadMagic);
        assert_eq!(err(&[0u8; 64]), CheckpointError::BadMagic);
        let mut e = Engine::new(&spec(), &Topology::odoh(), 1).unwrap();
        e.run_until_events(50);
        let mut bytes = e.checkpoint();
        bytes.truncate(bytes.len() - 3);
        assert!(matches!(err(&bytes), CheckpointError::Truncated { .. }));
        let mut bytes = e.checkpoint();
        bytes.extend_from_slice(&[0, 0, 0]);
        assert_eq!(err(&bytes), CheckpointError::Trailing { bytes: 3 });
        let mut bytes = e.checkpoint();
        bytes[5] ^= 0xFF; // version field
        assert!(matches!(err(&bytes), CheckpointError::Version(_)));
        assert_eq!(
            String::from(err(b"nope")),
            "not a dcp-worlds checkpoint (bad magic)"
        );
    }

    /// Byte offset of the `names` field: magic, version, `users`.
    const NAMES_AT: usize = 16;

    /// Byte offset of a topology field, `after` bytes past `hops`.
    fn topo_at(bytes: &[u8], after: usize) -> usize {
        // magic, version, eight spec fields, then the name's length.
        let name_len = u64::from_le_bytes(bytes[72..80].try_into().unwrap()) as usize;
        80 + name_len + after
    }

    fn mid_run(preset: &str) -> Vec<u8> {
        let mut e = Engine::new(&spec(), &Topology::by_name(preset).unwrap(), 3).unwrap();
        e.run_until_events(300);
        assert!(!e.lane.is_empty());
        e.checkpoint()
    }

    #[test]
    fn restore_rejects_what_the_engine_would_reject() {
        let bytes = mid_run("mixnet");
        assert!(Engine::restore(&bytes).is_ok());

        // More names than a u32 indexes: an error before any allocation.
        let mut names = bytes.clone();
        names[NAMES_AT..NAMES_AT + 8].copy_from_slice(&(u64::from(u32::MAX) + 1).to_le_bytes());
        assert!(matches!(
            Engine::restore(&names),
            Err(CheckpointError::World(_))
        ));

        // 256 hops would wrap to a direct path in the events' `u8`.
        let mut hops = bytes.clone();
        let at = topo_at(&bytes, 0);
        hops[at..at + 4].copy_from_slice(&256u32.to_le_bytes());
        assert!(matches!(
            Engine::restore(&hops),
            Err(CheckpointError::World(_))
        ));
    }

    #[test]
    fn restore_rejects_events_the_lane_cannot_order() {
        let bytes = mid_run("mixnet");
        // A shorter link puts hop transits in flight due later than one
        // link from the clock, behind the next one the lane would send.
        let mut link = bytes.clone();
        // Past hops, ingresses, batch window, padding, resolvers, stripe.
        let at = topo_at(&bytes, 4 + 4 + 8 + 8 + 4 + 1);
        link[at..at + 8].copy_from_slice(&1u64.to_le_bytes());
        assert_eq!(
            Engine::restore(&link).unwrap_err(),
            CheckpointError::OutOfRange("pending event")
        );
    }

    #[test]
    fn every_truncation_is_an_error() {
        let bytes = mid_run("odoh");
        for len in 0..bytes.len() {
            assert!(
                matches!(
                    Engine::restore(&bytes[..len]),
                    Err(CheckpointError::Truncated { .. })
                ),
                "{len} of {} bytes",
                bytes.len()
            );
        }
    }

    #[test]
    fn checkpoints_round_trip_byte_exactly_with_hops_in_flight() {
        // High rate: hop transits, arrivals and flushes often share a µs.
        let spec = WorldSpec::smoke()
            .users(100)
            .names(40)
            .rate_hz(100.0)
            .duration_us(150_000);
        for name in ["mixnet", "pgpp", "direct"] {
            let topo = Topology::by_name(name).unwrap();
            let mut straight = Engine::new(&spec, &topo, 4).unwrap();
            straight.run_to_end();

            let mut e = Engine::new(&spec, &topo, 4).unwrap();
            let mut pauses = 0;
            for at in (37..).step_by(37) {
                if e.run_until_events(at) {
                    break;
                }
                assert!(!e.lane.is_empty(), "{name}: lane empty at event {at}");
                let bytes = e.checkpoint();
                let restored = Engine::restore(&bytes).unwrap();
                assert_eq!(restored.checkpoint(), bytes, "{name} at event {at}");
                assert_eq!(restored.lane, e.lane, "hop transits go back to the lane");
                e = restored;
                pauses += 1;
            }
            assert!(pauses > 50, "{name}: {pauses} pauses");
            assert_eq!(e.report(), straight.report(), "{name}");
        }
    }

    /// At every event count of two small worlds, checkpoint → restore →
    /// checkpoint gives the same bytes, and a twin restored from an
    /// earlier checkpoint (every 61 events) and run alongside leaves the
    /// same bytes: a checkpoint holds the event loop's position, and a
    /// producer restarted from it draws what the original's drew ahead.
    /// The counts include arrivals mid-block, on a block boundary, the
    /// last arrival and the stream's end.
    #[test]
    fn checkpoints_hold_the_event_loop_not_the_read_ahead() {
        use crate::gen::BLOCK;
        // About 1,200 arrivals, past a block boundary. A flat envelope, so
        // that a restore builds no thinning table.
        let spec = WorldSpec::smoke()
            .users(30)
            .names(20)
            .rate_hz(40.0)
            .diurnal(0.0, 0)
            .duration_us(1_000_000);
        for name in ["direct", "odoh"] {
            let mut e = Engine::new(&spec, &Topology::by_name(name).unwrap(), 6).unwrap();
            let mut twin = Engine::restore(&e.checkpoint()).unwrap();
            // Mid-block, on a boundary, past the last arrival, drained.
            let mut seen = [false; 4];
            loop {
                let bytes = e.checkpoint();
                let restored = Engine::restore(&bytes).unwrap();
                assert_eq!(restored.checkpoint(), bytes, "{name} at event {}", e.events);
                assert_eq!(
                    twin.checkpoint(),
                    bytes,
                    "{name}'s twin at event {}",
                    e.events
                );
                if e.events % 61 == 0 {
                    twin = restored;
                }
                let done = e.run_until_events(e.events + 1);
                twin.run_until_events(twin.events + 1);
                let handled = e.stats.queries_sent as usize;
                let pending = e.arrival.is_some();
                seen[0] |= pending && handled % BLOCK != 0;
                seen[1] |= pending && handled > 0 && handled % BLOCK == 0;
                seen[2] |= !pending && !done;
                seen[3] |= done;
                if done {
                    break;
                }
            }
            assert_eq!(seen, [true; 4], "{name}");
        }
    }

    /// Set counter `field` of `e` to `below` under its type's maximum
    /// (element `at` of a vector or map, modulo its length). `false` when
    /// there was no such element.
    fn set_near_max(e: &mut Engine, field: u8, below: u64, at: usize) -> bool {
        let near = u64::MAX - below;
        let near32 = u32::MAX - below as u32;
        let st = &mut e.stats;
        let slot = |v: &mut Vec<u64>| {
            let n = v.len();
            v[at % n] = near;
        };
        match field {
            0 => e.next_seq = near,
            1 => e.events = near,
            2 => st.queries_sent = near,
            3 => st.queries_answered = near,
            4 => st.messages = near,
            5 => st.batches = near,
            6 => st.batch_users_sum = near,
            7 => slot(&mut st.anon_hist),
            8 => st.linkage_attempts = near,
            9 => st.linkage_linked = near,
            10 => slot(&mut st.latency_hist),
            11 => st.latency_sum_us = u128::MAX - u128::from(below),
            12 => slot(&mut st.resolver_queries),
            13 => {
                let n = st.per_user_resolver.len();
                st.per_user_resolver[at % n] = near32;
            }
            _ => {
                let n = st.inflight_sizes.len().max(1);
                match st.inflight_sizes.values_mut().nth(at % n) {
                    Some(count) => *count = near32,
                    None => return false,
                }
            }
        }
        true
    }

    /// A one-user direct world advanced by `k` answered queries, every
    /// counter moved as the engine would move it: an arrival and two hop
    /// transits per query, each answered at the path's latency.
    fn fast_forward(e: &mut Engine, k: u64) {
        let st = &mut e.stats;
        st.queries_sent += k;
        st.queries_answered += k;
        st.linkage_attempts += k;
        st.messages += 2 * k;
        st.latency_hist[0] += k;
        st.latency_sum_us += u128::from(k * 2 * e.topo.link_us);
        st.resolver_queries[0] += k;
        let n = &mut st.per_user_resolver[0];
        *n = u32::try_from(u64::from(*n) + k).unwrap_or(u32::MAX);
        e.events += 3 * k;
        e.next_seq += 3 * k;
    }

    /// A user's count at one resolver saturates at `u32::MAX` instead of
    /// overflowing (a panic in this debug build), and a checkpoint of a
    /// world past it restores and resumes exactly.
    #[test]
    fn per_user_counts_saturate_and_survive_a_checkpoint() {
        let spec = WorldSpec::smoke()
            .users(1)
            .rate_hz(50.0)
            .duration_us(1_000_000);
        let mut e = Engine::new(&spec, &Topology::direct(), 2).unwrap();
        e.run_until_events(30);
        fast_forward(&mut e, u64::from(u32::MAX));
        let mut resumed = Engine::restore(&e.checkpoint()).unwrap();
        e.run_to_end();
        resumed.run_to_end();
        assert_eq!(resumed.report(), e.report());
        assert_eq!(e.stats.per_user_resolver[0], u32::MAX);
        assert!(e.stats.resolver_queries[0] > u64::from(u32::MAX) + 10);
        assert_eq!(e.report().max_resolver_share, 1.0);
    }

    /// What a proptest case does to a mid-run world's arrival stream.
    #[derive(Clone, Debug)]
    enum BreakStream {
        /// Set the clock to this non-finite or negative value.
        Clock(f64),
        /// Move the clock this far (at least 1 µs) from its arrival, kept
        /// within `[0, duration]`.
        Shift(f64),
        /// Drop the pending arrival.
        Drop,
        /// Turn the pending event at this index (modulo) into a second
        /// arrival.
        Second(usize),
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Restore checks the arrival stream: its clock is finite and not
        /// negative, one arrival is pending at the clock rounded up while
        /// the clock is short of the end, and there is never a second.
        #[test]
        fn restore_rejects_a_broken_arrival_stream(
            preset in prop_oneof![Just("odoh"), Just("mixnet"), Just("direct")],
            broken in prop_oneof![
                prop_oneof![
                    Just(f64::NAN),
                    Just(f64::INFINITY),
                    Just(f64::NEG_INFINITY),
                    any::<u64>().prop_map(|b| -f64::from_bits(b >> 2).max(f64::MIN_POSITIVE)),
                ]
                .prop_map(BreakStream::Clock),
                (1u64..1 << 22, any::<bool>()).prop_map(|(d, up)| {
                    BreakStream::Shift(if up { d as f64 } else { -(d as f64) })
                }),
                Just(BreakStream::Drop),
                any::<usize>().prop_map(BreakStream::Second),
            ],
        ) {
            let mut e = Engine::restore(&mid_run(preset)).unwrap();
            prop_assert!(e.arrival.is_some(), "{} is past its arrivals", preset);
            let end = e.spec.duration_us as f64;
            let want = match broken {
                BreakStream::Clock(c) => {
                    e.clock_us = c;
                    CheckpointError::OutOfRange("arrival clock")
                }
                BreakStream::Shift(d) => {
                    e.clock_us = (e.clock_us + d).clamp(0.0, end);
                    CheckpointError::OutOfRange("pending arrival")
                }
                BreakStream::Drop => {
                    e.arrival = None;
                    CheckpointError::OutOfRange("pending arrival")
                }
                BreakStream::Second(at) => {
                    let at = at % e.lane.len();
                    e.lane[at].2 = PopEvent::Arrival;
                    CheckpointError::OutOfRange("pending arrivals")
                }
            };
            prop_assert_eq!(Engine::restore(&e.checkpoint()).unwrap_err(), want);
        }
    }

    #[test]
    fn restore_rejects_counters_no_run_could_hold() {
        let mut e = Engine::restore(&mid_run("mixnet")).unwrap();
        assert_eq!(e.stats.queries_answered, e.stats.linkage_attempts);
        e.stats.queries_answered = e.stats.queries_sent + 1;
        assert_eq!(
            Engine::restore(&e.checkpoint()).unwrap_err(),
            CheckpointError::Counter("query")
        );
        let mut e = Engine::restore(&mid_run("mixnet")).unwrap();
        e.stats.anon_hist[3] += 1;
        assert_eq!(
            Engine::restore(&e.checkpoint()).unwrap_err(),
            CheckpointError::Counter("batch")
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Restore fails closed on counters: one set near its maximum is
        /// an error, and a checkpoint that restores runs 10⁴ more events
        /// without an overflow (a panic in this debug build).
        #[test]
        fn counters_near_their_maximum_fail_closed(
            preset in prop_oneof![Just("odoh"), Just("mixnet"), Just("pgpp")],
            field in 0u8..15,
            below in 0u64..4,
            at in any::<usize>(),
        ) {
            let mut e = Engine::restore(&mid_run(preset)).unwrap();
            let changed = set_near_max(&mut e, field, below, at);
            match Engine::restore(&e.checkpoint()) {
                Ok(mut e) => {
                    prop_assert!(!changed, "field {} accepted near its maximum", field);
                    e.run_until_events(e.events_processed() + 10_000);
                    let _ = e.report();
                }
                Err(err) => prop_assert!(
                    matches!(err, CheckpointError::Counter(_)),
                    "field {}: {:?}",
                    field,
                    err
                ),
            }
        }
    }

    /// What a fuzz case does to a checkpoint.
    #[derive(Clone, Debug)]
    enum Mangle {
        /// Replace it with these bytes, after its magic and version when
        /// the flag is set (so the parser gets past the header).
        Bytes(bool, Vec<u8>),
        /// Flip bits: `(position seed, bit)`, anywhere but `names`.
        Flip(Vec<(u64, u8)>),
        /// Keep a prefix (the length modulo the checkpoint's).
        Truncate(u64),
    }

    impl Mangle {
        fn apply(&self, mut bytes: Vec<u8>) -> Vec<u8> {
            match self {
                Mangle::Bytes(headed, b) => {
                    bytes.truncate(if *headed { 8 } else { 0 });
                    bytes.extend_from_slice(b);
                }
                Mangle::Flip(flips) => {
                    // A huge `names` would really be allocated (Zipf's CDF
                    // holds one f64 per name), so its field is skipped.
                    for &(pos, bit) in flips {
                        let mut i = (pos % (bytes.len() - 8) as u64) as usize;
                        if i >= NAMES_AT {
                            i += 8;
                        }
                        bytes[i] ^= 1 << bit;
                    }
                }
                Mangle::Truncate(len) => bytes.truncate((len % bytes.len() as u64) as usize),
            }
            bytes
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Restore fails closed: any input is an error or an engine that
        /// runs on and reports.
        #[test]
        fn restore_fails_closed(
            preset in prop_oneof![Just("odoh"), Just("mixnet")],
            mangle in prop_oneof![
                (any::<bool>(), collection::vec(any::<u8>(), 0..512))
                    .prop_map(|(headed, b)| Mangle::Bytes(headed, b)),
                collection::vec((any::<u64>(), 0u8..8), 1..4).prop_map(Mangle::Flip),
                any::<u64>().prop_map(Mangle::Truncate),
            ],
        ) {
            let bytes = mangle.apply(mid_run(preset));
            if let Ok(mut e) = Engine::restore(&bytes) {
                e.run_until_events(e.events_processed().saturating_add(20_000));
                let _ = e.report();
            }
        }
    }
}
