//! Seeded request streams: every key, op, value and arrival gap a workload
//! sends is drawn here, in set-up, from `--seed`. The server sees only the
//! rendered bytes.
//!
//! A stream is per connection and used cyclically. Connections never write
//! each other's keys (`wire_point`/`wire_durable_put` split the keyspace by
//! residue, `wire_scan_churn` by stripe), so each connection's replies are
//! explained by a sequential model of its own keys — see [`Model`].

use rand::distributions::Zipf;
use rand::{Rng, SeedableRng, SmallRng};
use stm_kv::proto::{render_request_v2, Request};
use stm_kv::Value;

/// All keys sit beyond the server's pre-allocated range (`0..65_536`), so
/// every operation goes through `KvStore::fetch_cell`'s shard map.
pub const KEY_BASE: i64 = 1 << 32;
/// Keys of `wire_point` and `wire_durable_put`.
pub const POINT_KEYS: u32 = 65_536;
/// Keys each `wire_scan_churn` connection owns.
pub const STRIPE: u32 = 131_072;
/// Consecutive keys one `RANGE` covers.
pub const RANGE_SPAN: u32 = 256;
/// Value size of `wire_durable_put`.
pub const BLOB_BYTES: usize = 256;
/// User bytes one durable `PUT` acknowledges: 8-byte key + value.
pub const DURABLE_USER_BYTES: u64 = 8 + BLOB_BYTES as u64;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    WirePoint,
    WireDurablePut,
    WireScanChurn,
    InprocContended,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::WirePoint,
        Workload::WireDurablePut,
        Workload::WireScanChurn,
        Workload::InprocContended,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::WirePoint => "wire_point",
            Workload::WireDurablePut => "wire_durable_put",
            Workload::WireScanChurn => "wire_scan_churn",
            Workload::InprocContended => "inproc_contended",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn durable(self) -> bool {
        self == Workload::WireDurablePut
    }

    /// Total open-loop rate, requests per second over all connections,
    /// frozen at a fraction of the seed's measured `goodput_rps` on this
    /// 2-CPU host (see `bench/README.md`, "Frozen open-loop rates").
    pub fn open_rate_rps(self) -> f64 {
        match self {
            Workload::WirePoint => 21_000.0,     // 10% of 212k req/s
            Workload::WireDurablePut => 3_300.0, // 10% of 33k req/s
            Workload::WireScanChurn => 3_900.0,  // 10% of 39k req/s
            Workload::InprocContended => 0.0,    // closed loop only
        }
    }

    /// The fraction of seed goodput [`Workload::open_rate_rps`] stands for.
    pub fn open_rate_fraction(self) -> f64 {
        match self {
            Workload::InprocContended => 0.0,
            _ => 0.10,
        }
    }

    /// Keys the server holds for this workload with `conns` connections.
    pub fn keyspace(self, conns: usize) -> u32 {
        match self {
            Workload::WireScanChurn => STRIPE * conns as u32,
            _ => POINT_KEYS,
        }
    }

    /// Requests in one connection's (cyclic) stream.
    pub fn stream_len(self) -> usize {
        match self {
            Workload::WireDurablePut => 1 << 16,
            _ => 1 << 19,
        }
    }

    /// Which connection writes key index `idx`.
    pub fn owner(self, idx: u32, conns: usize) -> usize {
        match self {
            Workload::WireScanChurn => (idx / STRIPE) as usize,
            _ => idx as usize % conns,
        }
    }
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Op {
    Get,
    Put,
    Del,
    Range,
}

/// What the generator remembers about one request besides its bytes.
#[derive(Clone, Copy, Debug)]
pub struct Meta {
    pub op: Op,
    /// Key index (`KEY_BASE + key` on the wire); the low end for `Range`.
    pub key: u32,
    /// `Put` only: the `Int` value, or the tag a blob is derived from.
    pub val: i64,
    /// Poisson gap between the previous request's due time and this one's.
    pub gap_ns: u32,
}

pub fn wire_key(idx: u32) -> i64 {
    KEY_BASE + i64::from(idx)
}

/// The 256-byte value a durable `PUT` with tag `tag` carries (splitmix64
/// words), so a model can hold the tag and regenerate the bytes to compare.
pub fn blob(tag: i64) -> Vec<u8> {
    let mut out = Vec::with_capacity(BLOB_BYTES);
    let mut state = tag as u64;
    while out.len() < BLOB_BYTES {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        out.extend_from_slice(&(z ^ (z >> 31)).to_le_bytes());
    }
    out
}

pub fn value_of(workload: Workload, val: i64) -> Value {
    if workload.durable() {
        Value::Bytes(blob(val))
    } else {
        Value::Int(val)
    }
}

pub fn request_of(workload: Workload, meta: &Meta) -> Request {
    let key = wire_key(meta.key);
    match meta.op {
        Op::Get => Request::Get(key),
        Op::Put => Request::Put(key, value_of(workload, meta.val)),
        Op::Del => Request::Del(key),
        Op::Range => Request::Range(key, key + i64::from(RANGE_SPAN) - 1),
    }
}

/// One connection's pre-rendered requests: `bytes[offs[i]..offs[i + 1]]` is
/// request `i`, described by `meta[i]`.
pub struct Stream {
    pub bytes: Vec<u8>,
    pub offs: Vec<u32>,
    pub meta: Vec<Meta>,
}

impl Stream {
    fn render(workload: Workload, meta: Vec<Meta>) -> Stream {
        let mut bytes = Vec::new();
        let mut offs = Vec::with_capacity(meta.len() + 1);
        offs.push(0);
        for m in &meta {
            bytes.extend_from_slice(&render_request_v2(&request_of(workload, m)));
            offs.push(u32::try_from(bytes.len()).expect("a stream stays below 4 GiB"));
        }
        Stream { bytes, offs, meta }
    }

    pub fn len(&self) -> usize {
        self.meta.len()
    }

    pub fn is_empty(&self) -> bool {
        self.meta.is_empty()
    }

    pub fn request(&self, i: usize) -> &[u8] {
        &self.bytes[self.offs[i] as usize..self.offs[i + 1] as usize]
    }

    /// FNV-1a over the rendered bytes and the arrival gaps: two streams with
    /// the same hash put the same bytes on the wire at the same due times.
    pub fn hash(&self) -> u64 {
        let mut hash = 0xCBF2_9CE4_8422_2325u64;
        let gaps = self.meta.iter().flat_map(|m| m.gap_ns.to_le_bytes());
        for byte in self.bytes.iter().copied().chain(gaps) {
            hash = (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01B3);
        }
        hash
    }
}

fn rng_for(workload: Workload, seed: u64, conn: usize, purpose: u64) -> SmallRng {
    let lane = (workload as u64) << 32 | (conn as u64) << 8 | purpose;
    SmallRng::seed_from_u64(seed ^ lane.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// The `PUT`s connection `conn` sends in set-up: every key it owns for the
/// point workloads, a seeded half of its stripe for `wire_scan_churn` (its
/// 35/35 put/delete mix holds occupancy at one half from there on).
pub fn prefill(workload: Workload, seed: u64, conn: usize, conns: usize) -> Stream {
    let mut rng = rng_for(workload, seed, conn, 1);
    let meta = (0..workload.keyspace(conns))
        .filter(|&idx| workload.owner(idx, conns) == conn)
        .filter(|_| workload != Workload::WireScanChurn || rng.gen::<bool>())
        .map(|idx| Meta {
            op: Op::Put,
            key: idx,
            val: i64::from(idx),
            gap_ns: 0,
        })
        .collect();
    Stream::render(workload, meta)
}

/// Connection `conn`'s request stream for the timed phases.
pub fn stream(workload: Workload, seed: u64, conn: usize, conns: usize) -> Stream {
    let mut rng = rng_for(workload, seed, conn, 2);
    let mean_gap_ns = 1e9 * conns as f64 / workload.open_rate_rps().max(1.0);
    let owned = POINT_KEYS / conns as u32;
    let own_point_key = |rng: &mut SmallRng| rng.gen_range(0..owned) * conns as u32 + conn as u32;
    let stripe_lo = STRIPE * conn as u32;
    let meta = (0..workload.stream_len())
        .map(|_| {
            let gap = -(1.0 - rng.gen::<f64>()).ln() * mean_gap_ns;
            let gap_ns = gap.min(f64::from(u32::MAX)) as u32;
            let val = rng.gen_range(0..1_000_000_000i64);
            let (op, key) = match workload {
                Workload::WirePoint => {
                    if rng.gen_range(0..10u32) == 0 {
                        (Op::Put, own_point_key(&mut rng))
                    } else {
                        (Op::Get, rng.gen_range(0..POINT_KEYS))
                    }
                }
                Workload::WireDurablePut => (Op::Put, own_point_key(&mut rng)),
                Workload::WireScanChurn => match rng.gen_range(0..100u32) {
                    0..=34 => (Op::Put, stripe_lo + rng.gen_range(0..STRIPE)),
                    35..=69 => (Op::Del, stripe_lo + rng.gen_range(0..STRIPE)),
                    70..=89 => (Op::Get, stripe_lo + rng.gen_range(0..STRIPE)),
                    _ => (Op::Range, stripe_lo + rng.gen_range(0..STRIPE - RANGE_SPAN)),
                },
                Workload::InprocContended => unreachable!("no wire stream"),
            };
            Meta {
                op,
                key,
                val,
                gap_ns,
            }
        })
        .collect();
    Stream::render(workload, meta)
}

/// One `inproc_contended` transfer: read four accounts, move `amount` from
/// the first to the second.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Transfer {
    pub accounts: [u8; 4],
    pub amount: i64,
}

/// Accounts of `inproc_contended`.
pub const ACCOUNTS: usize = 8;

/// Thread `thread`'s (cyclic) transfer stream: four distinct accounts drawn
/// zipf 0.99 over the eight, so account 0 is in almost every transaction.
pub fn transfers(seed: u64, thread: usize, len: usize) -> Vec<Transfer> {
    let mut rng = rng_for(Workload::InprocContended, seed, thread, 3);
    let zipf = Zipf::new(ACCOUNTS as u64, 0.99);
    (0..len)
        .map(|_| {
            let mut accounts = [u8::MAX; 4];
            for slot in 0..4 {
                accounts[slot] = loop {
                    let candidate = zipf.sample(&mut rng) as u8;
                    if !accounts[..slot].contains(&candidate) {
                        break candidate;
                    }
                };
            }
            Transfer {
                accounts,
                amount: rng.gen_range(1..100i64),
            }
        })
        .collect()
}

/// A connection's sequential model of the keys it owns: replies on one
/// connection are ordered and nobody else writes these keys, so the state
/// after every acknowledged request is known exactly.
pub struct Model {
    workload: Workload,
    present: Vec<bool>,
    vals: Vec<i64>,
}

impl Model {
    pub fn new(workload: Workload, conns: usize) -> Model {
        let keys = workload.keyspace(conns) as usize;
        Model {
            workload,
            present: vec![false; keys],
            vals: vec![0; keys],
        }
    }

    /// Applies one acknowledged request.
    pub fn apply(&mut self, meta: &Meta) {
        match meta.op {
            Op::Put => {
                self.present[meta.key as usize] = true;
                self.vals[meta.key as usize] = meta.val;
            }
            Op::Del => self.present[meta.key as usize] = false,
            Op::Get | Op::Range => {}
        }
    }

    pub fn is_present(&self, idx: u32) -> bool {
        self.present[idx as usize]
    }

    pub fn get(&self, idx: u32) -> Option<Value> {
        self.present[idx as usize].then(|| value_of(self.workload, self.vals[idx as usize]))
    }

    /// The pairs a `RANGE` over key indices `lo..=hi` must return.
    pub fn range(&self, lo: u32, hi: u32) -> Vec<(i64, Value)> {
        let hi = hi.min(self.present.len() as u32 - 1);
        (lo..=hi)
            .filter_map(|idx| self.get(idx).map(|value| (wire_key(idx), value)))
            .collect()
    }

    /// Copies the keys `conn` owns from `other` (which modelled them).
    pub fn adopt(&mut self, other: &Model, conn: usize, conns: usize) {
        for idx in 0..self.present.len() as u32 {
            if self.workload.owner(idx, conns) == conn {
                self.present[idx as usize] = other.present[idx as usize];
                self.vals[idx as usize] = other.vals[idx as usize];
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_byte_stream() {
        for workload in [Workload::WirePoint, Workload::WireScanChurn] {
            let a = stream(workload, 7, 1, 2);
            let b = stream(workload, 7, 1, 2);
            assert_eq!(a.hash(), b.hash());
            assert_eq!(a.bytes, b.bytes);
            assert_ne!(
                a.hash(),
                stream(workload, 8, 1, 2).hash(),
                "seed must matter"
            );
            assert_ne!(
                a.hash(),
                stream(workload, 7, 0, 2).hash(),
                "connection must matter"
            );
        }
        assert_eq!(transfers(7, 0, 1000), transfers(7, 0, 1000));
        assert_ne!(transfers(7, 0, 1000), transfers(8, 0, 1000));
    }

    #[test]
    fn connections_write_disjoint_keys() {
        for workload in [
            Workload::WirePoint,
            Workload::WireDurablePut,
            Workload::WireScanChurn,
        ] {
            for conn in 0..2 {
                let writes = stream(workload, 3, conn, 2)
                    .meta
                    .into_iter()
                    .chain(prefill(workload, 3, conn, 2).meta)
                    .filter(|m| matches!(m.op, Op::Put | Op::Del));
                for meta in writes {
                    assert_eq!(workload.owner(meta.key, 2), conn, "{workload:?} {meta:?}");
                }
            }
        }
    }

    #[test]
    fn churn_mix_and_prefill_are_as_specified() {
        let stream = stream(Workload::WireScanChurn, 11, 0, 2);
        let share =
            |op: Op| stream.meta.iter().filter(|m| m.op == op).count() as f64 / stream.len() as f64;
        assert!((share(Op::Put) - 0.35).abs() < 0.01);
        assert!((share(Op::Del) - 0.35).abs() < 0.01);
        assert!((share(Op::Get) - 0.20).abs() < 0.01);
        assert!((share(Op::Range) - 0.10).abs() < 0.01);
        let filled = prefill(Workload::WireScanChurn, 11, 0, 2).len() as f64;
        assert!((filled / f64::from(STRIPE) - 0.5).abs() < 0.02);
    }

    #[test]
    fn model_follows_puts_and_deletes() {
        let mut model = Model::new(Workload::WireScanChurn, 1);
        let put = |key, val| Meta {
            op: Op::Put,
            key,
            val,
            gap_ns: 0,
        };
        model.apply(&put(5, 50));
        model.apply(&put(7, 70));
        model.apply(&Meta {
            op: Op::Del,
            key: 5,
            val: 0,
            gap_ns: 0,
        });
        assert_eq!(model.get(5), None);
        assert_eq!(model.range(0, 255), vec![(wire_key(7), Value::Int(70))]);
        assert_eq!(blob(9), blob(9));
        assert_ne!(blob(9), blob(10));
        assert_eq!(blob(9).len(), BLOB_BYTES);
    }

    #[test]
    fn transfers_use_four_distinct_accounts() {
        for transfer in transfers(5, 1, 10_000) {
            let mut seen = transfer.accounts.to_vec();
            seen.sort_unstable();
            seen.dedup();
            assert_eq!(seen.len(), 4);
            assert!(seen.iter().all(|&a| (a as usize) < ACCOUNTS));
        }
    }
}
