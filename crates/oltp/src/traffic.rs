//! Deterministic open-loop traffic generation.
//!
//! A [`TrafficGen`] produces, per simulated core, a stream of
//! [`Request`]s with *intended arrival cycles* drawn independently of
//! when the server actually gets to them. The workload waits until each
//! request's arrival when it is ahead, but never stretches the schedule
//! when it falls behind — latency is measured from intended arrival, so
//! queueing delay during overload is kept (no coordinated omission).
//!
//! Key selection is Zipfian (Jim Gray's quantile-function method, the
//! YCSB generator) over a seeded xorshift64* stream: same seed, same
//! stream, bit-for-bit, on every host. Hot-key storm phases and
//! multi-tenant phase schedules reshape the key distribution at
//! deterministic request indexes.

use std::sync::OnceLock;

/// Hot-key storm phases: in every window of `every` requests (per core),
/// the first `len` draw their key uniformly from the `hot` most popular
/// keys of the active tenant's slice instead of from the full Zipfian.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StormSpec {
    /// Window length in requests.
    pub every: u64,
    /// Storm prefix of each window, in requests (`1..=every`).
    pub len: u64,
    /// Size of the hot set targeted during a storm.
    pub hot: u64,
}

/// Knobs of the traffic generator. Fields left at 0 are resolved to
/// scale-dependent defaults by the workload (`Oltp::with_traffic`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrafficConfig {
    /// Zipfian skew exponent, `0.0 <= theta < 1.0` (0 = uniform).
    pub theta: f64,
    /// Percentage of read requests (the rest are new-order writes).
    pub read_pct: u32,
    /// Mean inter-arrival gap per core, in cycles (0 = auto by scale).
    pub rate: u64,
    /// Requests issued per core (0 = auto by scale).
    pub reqs_per_core: u64,
    /// Number of distinct inventory keys (0 = auto by scale).
    pub keys: u64,
    /// Seed of the xorshift stream.
    pub seed: u64,
    /// Optional hot-key storm schedule.
    pub storm: Option<StormSpec>,
    /// Tenants sharing the run; each owns a disjoint key slice and the
    /// run is divided into `tenants` consecutive phases, one per tenant.
    pub tenants: u64,
}

impl Default for TrafficConfig {
    fn default() -> Self {
        TrafficConfig {
            theta: 0.99,
            read_pct: 90,
            rate: 0,
            reqs_per_core: 0,
            keys: 0,
            seed: 0x0171_5EED,
            storm: None,
            tenants: 1,
        }
    }
}

/// Parse a `--traffic` spec string: comma-separated `key=value` pairs,
/// any order, all optional (missing knobs keep their defaults).
///
/// ```text
/// zipf=0.99,rw=90:10,rate=400,reqs=64,keys=1024,seed=7,storm=32:16:2,tenants=4
/// ```
///
/// * `zipf=THETA`          — Zipfian skew, `0 <= THETA < 1` (0 = uniform)
/// * `rw=R:W`              — read/write mix in percent, `R + W = 100`
/// * `rate=CYCLES`         — mean open-loop inter-arrival gap per core
/// * `reqs=N`              — requests per core
/// * `keys=N`              — inventory keys (>= 2)
/// * `seed=N`              — traffic RNG seed
/// * `storm=EVERY:LEN:HOT` — hot-key storm schedule (see [`StormSpec`])
/// * `tenants=N`           — tenants / phases (>= 1)
///
/// # Errors
///
/// Returns a message naming the offending `key=value` part when the
/// spec is malformed or a value is out of range.
pub fn parse_traffic_spec(s: &str) -> Result<TrafficConfig, String> {
    let mut cfg = TrafficConfig::default();
    for part in s.split(',').map(str::trim).filter(|p| !p.is_empty()) {
        let (key, val) = part
            .split_once('=')
            .ok_or_else(|| format!("traffic spec `{part}`: expected key=value"))?;
        let num = |v: &str| -> Result<u64, String> {
            v.parse::<u64>().map_err(|_| format!("traffic spec `{part}`: `{v}` is not a number"))
        };
        match key {
            "zipf" => {
                let theta: f64 = val
                    .parse()
                    .map_err(|_| format!("traffic spec `{part}`: `{val}` is not a number"))?;
                if !(0.0..1.0).contains(&theta) {
                    return Err(format!("traffic spec `{part}`: theta must be in [0, 1)"));
                }
                cfg.theta = theta;
            }
            "rw" => {
                let (r, w) = val
                    .split_once(':')
                    .ok_or_else(|| format!("traffic spec `{part}`: expected rw=READ:WRITE"))?;
                let (r, w) = (num(r)?, num(w)?);
                if r + w != 100 {
                    return Err(format!("traffic spec `{part}`: read + write must equal 100"));
                }
                cfg.read_pct = r as u32;
            }
            "rate" => {
                cfg.rate = num(val)?;
                if cfg.rate == 0 {
                    return Err(format!("traffic spec `{part}`: rate must be >= 1"));
                }
            }
            "reqs" => {
                cfg.reqs_per_core = num(val)?;
                if cfg.reqs_per_core == 0 {
                    return Err(format!("traffic spec `{part}`: reqs must be >= 1"));
                }
            }
            "keys" => {
                cfg.keys = num(val)?;
                if cfg.keys < 2 {
                    return Err(format!("traffic spec `{part}`: keys must be >= 2"));
                }
            }
            "seed" => cfg.seed = num(val)?,
            "storm" => {
                let mut it = val.splitn(3, ':');
                let (e, l, h) = match (it.next(), it.next(), it.next()) {
                    (Some(e), Some(l), Some(h)) => (num(e)?, num(l)?, num(h)?),
                    _ => {
                        return Err(format!("traffic spec `{part}`: expected storm=EVERY:LEN:HOT"))
                    }
                };
                if e == 0 || l == 0 || l > e || h == 0 {
                    return Err(format!(
                        "traffic spec `{part}`: need EVERY >= LEN >= 1 and HOT >= 1"
                    ));
                }
                cfg.storm = Some(StormSpec { every: e, len: l, hot: h });
            }
            "tenants" => {
                cfg.tenants = num(val)?;
                if cfg.tenants == 0 {
                    return Err(format!("traffic spec `{part}`: tenants must be >= 1"));
                }
            }
            _ => {
                return Err(format!(
                    "traffic spec `{part}`: unknown key `{key}` \
                     (expected zipf/rw/rate/reqs/keys/seed/storm/tenants)"
                ))
            }
        }
    }
    Ok(cfg)
}

/// Seeded xorshift64* stream — deterministic, no OS entropy, identical
/// on every host.
#[derive(Debug, Clone)]
pub struct Xorshift64 {
    s: u64,
}

impl Xorshift64 {
    /// Seeded stream (any seed, including 0, is remixed to a nonzero
    /// internal state).
    pub fn new(seed: u64) -> Self {
        // SplitMix64 finalizer decorrelates nearby seeds and maps 0 away.
        let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        Xorshift64 { s: (z ^ (z >> 31)) | 1 }
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.s;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.s = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform draw in `[0, n)`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n.max(1)
    }

    /// Uniform draw in `[0, 1)` with 53 bits of precision.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// Zipfian rank sampler over `0..n` (rank 0 most popular), using Gray's
/// closed-form quantile approximation as popularized by YCSB. All
/// constants are precomputed at construction; a draw is O(1).
#[derive(Debug, Clone)]
pub struct Zipfian {
    n: u64,
    zetan: f64,
    zeta2: f64,
    alpha: f64,
    eta: f64,
}

impl Zipfian {
    /// Sampler over `n >= 1` ranks with skew `0 <= theta < 1`.
    #[allow(clippy::similar_names)] // zetan/zeta2 are the literature's names
    pub fn new(n: u64, theta: f64) -> Self {
        assert!(n >= 1, "zipfian needs a nonempty key space");
        assert!((0.0..1.0).contains(&theta), "theta must be in [0, 1)");
        let zetan: f64 = (1..=n).map(|i| 1.0 / (i as f64).powf(theta)).sum();
        let zeta2 = 1.0 + 0.5f64.powf(theta);
        let alpha = 1.0 / (1.0 - theta);
        let eta = (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta2 / zetan);
        Zipfian { n, zetan, zeta2, alpha, eta }
    }

    /// Draw a rank in `0..n`.
    pub fn draw(&self, rng: &mut Xorshift64) -> u64 {
        if self.n == 1 {
            return 0;
        }
        let u = rng.next_f64();
        let uz = u * self.zetan;
        if uz < 1.0 {
            return 0;
        }
        if uz < self.zeta2 {
            return 1;
        }
        let r = (self.n as f64 * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64;
        r.min(self.n - 1)
    }
}

/// What a request asks the OLTP kernel to do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Write: decrement stock, insert order + payment, bump the
    /// customer's secondary-index entry.
    NewOrder,
    /// Read: inspect one inventory row.
    StockLevel,
    /// Read: follow the customer secondary index.
    OrderStatus,
}

/// One generated request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Request {
    /// Intended arrival cycle (open-loop schedule; independent of when
    /// the server actually serves it).
    pub arrival: u64,
    /// Operation.
    pub op: Op,
    /// Inventory key (1-based, within the active tenant's slice).
    pub key: u64,
    /// Customer id (1-based, per-core space — secondary-index target).
    pub customer: u64,
}

/// Per-core deterministic request stream. Requests must be taken in
/// order via [`TrafficGen::next_request`].
#[derive(Debug, Clone)]
pub struct TrafficGen {
    rng: Xorshift64,
    zipf: Zipfian,
    cfg: TrafficConfig,
    core: u64,
    issued: u64,
    clock: u64,
    /// Keys per tenant slice.
    slice: u64,
}

/// Customers per core (the secondary-index key space).
pub const CUSTOMERS_PER_CORE: u64 = 16;

impl TrafficGen {
    /// Stream for `core` under a fully-resolved config (`rate`,
    /// `reqs_per_core` and `keys` must be nonzero).
    pub fn new(cfg: &TrafficConfig, core: usize) -> Self {
        Self::sharing(cfg, core, &OnceLock::new())
    }

    /// [`Self::new`], taking the rank sampler — a `powf` term per key to
    /// build, the same for every core of `cfg` — from `shared`, filled once.
    pub fn sharing(cfg: &TrafficConfig, core: usize, shared: &OnceLock<Zipfian>) -> Self {
        assert!(cfg.rate > 0 && cfg.reqs_per_core > 0 && cfg.keys > 0, "unresolved config");
        let tenants = cfg.tenants.clamp(1, cfg.keys / 2);
        let slice = cfg.keys / tenants;
        TrafficGen {
            rng: Xorshift64::new(cfg.seed ^ (core as u64).wrapping_mul(0xA24B_AED4_963E_E407)),
            zipf: shared.get_or_init(|| Zipfian::new(slice, cfg.theta)).clone(),
            cfg: TrafficConfig { tenants, ..*cfg },
            core: core as u64,
            issued: 0,
            clock: 0,
            slice,
        }
    }

    /// The tenant whose phase covers request index `i`: tenants take
    /// consecutive, equal phases of the per-core schedule.
    fn tenant_of(&self, i: u64) -> u64 {
        (i * self.cfg.tenants) / self.cfg.reqs_per_core.max(1)
    }

    /// Is request index `i` inside a storm prefix?
    fn in_storm(&self, i: u64) -> bool {
        self.cfg.storm.is_some_and(|s| i % s.every < s.len)
    }

    /// Generate the next request. Draw order is fixed (arrival gap, op
    /// roll, key, customer), so the stream is a pure function of
    /// `(seed, core)`.
    pub fn next_request(&mut self) -> Request {
        let i = self.issued;
        self.issued += 1;
        // Open-loop arrival: mean ~`rate`, uniform jitter in [rate/2, 3*rate/2).
        let gap = self.cfg.rate / 2 + self.rng.below(self.cfg.rate.max(1));
        self.clock += gap.max(1);
        let roll = self.rng.below(100);
        let tenant = self.tenant_of(i).min(self.cfg.tenants - 1);
        let slice_lo = tenant * self.slice;
        let rank = if self.in_storm(i) {
            self.rng.below(self.cfg.storm.map_or(1, |s| s.hot).min(self.slice))
        } else {
            self.zipf.draw(&mut self.rng)
        };
        let key = slice_lo + rank + 1;
        let customer = self.core * CUSTOMERS_PER_CORE + self.rng.below(CUSTOMERS_PER_CORE) + 1;
        let op = if roll < u64::from(self.cfg.read_pct) {
            // Alternate the two read flavours deterministically.
            if roll.is_multiple_of(2) {
                Op::StockLevel
            } else {
                Op::OrderStatus
            }
        } else {
            Op::NewOrder
        };
        Request { arrival: self.clock, op, key, customer }
    }
}

#[cfg(test)]
#[expect(clippy::disallowed_types, reason = "std containers as reference models")]
mod tests {
    use super::*;

    #[test]
    fn parse_defaults_on_empty() {
        let cfg = parse_traffic_spec("").unwrap();
        assert_eq!(cfg, TrafficConfig::default());
    }

    #[test]
    fn parse_full_spec() {
        let cfg = parse_traffic_spec(
            "zipf=0.5,rw=70:30,rate=200,reqs=10,keys=64,seed=9,storm=8:4:2,tenants=2",
        )
        .unwrap();
        assert_eq!(cfg.theta, 0.5);
        assert_eq!(cfg.read_pct, 70);
        assert_eq!(cfg.rate, 200);
        assert_eq!(cfg.reqs_per_core, 10);
        assert_eq!(cfg.keys, 64);
        assert_eq!(cfg.seed, 9);
        assert_eq!(cfg.storm, Some(StormSpec { every: 8, len: 4, hot: 2 }));
        assert_eq!(cfg.tenants, 2);
    }

    #[test]
    fn parse_errors_name_the_offending_key() {
        let e = parse_traffic_spec("zipf=0.9,bogus=1").unwrap_err();
        assert!(e.contains("bogus"), "{e}");
        assert!(e.contains("unknown key"), "{e}");
        let e = parse_traffic_spec("rw=60:30").unwrap_err();
        assert!(e.contains("rw=60:30"), "{e}");
        let e = parse_traffic_spec("zipf=1.5").unwrap_err();
        assert!(e.contains("zipf=1.5"), "{e}");
        let e = parse_traffic_spec("storm=0:1:1").unwrap_err();
        assert!(e.contains("storm"), "{e}");
        let e = parse_traffic_spec("noequals").unwrap_err();
        assert!(e.contains("key=value"), "{e}");
    }

    #[test]
    fn xorshift_is_deterministic_and_nondegenerate() {
        let mut a = Xorshift64::new(42);
        let mut b = Xorshift64::new(42);
        let mut distinct = std::collections::HashSet::new();
        for _ in 0..1000 {
            let x = a.next_u64();
            assert_eq!(x, b.next_u64());
            distinct.insert(x);
        }
        assert!(distinct.len() > 990, "xorshift stream repeats suspiciously");
        // Different seeds (including 0) give different streams.
        assert_ne!(Xorshift64::new(0).next_u64(), Xorshift64::new(1).next_u64());
    }

    #[test]
    fn zipfian_is_skewed_and_in_range() {
        let n = 1000;
        let z = Zipfian::new(n, 0.99);
        let mut rng = Xorshift64::new(7);
        let mut counts = vec![0u64; n as usize];
        let draws = 100_000;
        for _ in 0..draws {
            let r = z.draw(&mut rng);
            assert!(r < n);
            counts[r as usize] += 1;
        }
        // Under theta=0.99 the head dominates: rank 0 alone draws ~1/zetan
        // of the mass (~12% at n=1000) and the top 10 ranks a large share.
        let top10: u64 = counts[..10].iter().sum();
        assert!(counts[0] > draws / 20, "rank 0 only drew {}", counts[0]);
        assert!(top10 > draws / 3, "top-10 ranks only drew {top10}");
        // Uniform draws don't concentrate.
        let u = Zipfian::new(n, 0.0);
        let mut rng = Xorshift64::new(7);
        let mut head = 0u64;
        for _ in 0..draws {
            if u.draw(&mut rng) < 10 {
                head += 1;
            }
        }
        assert!(head < draws / 50, "uniform head drew {head}");
    }

    fn resolved(storm: Option<StormSpec>, tenants: u64) -> TrafficConfig {
        TrafficConfig {
            rate: 100,
            reqs_per_core: 64,
            keys: 64,
            storm,
            tenants,
            ..TrafficConfig::default()
        }
    }

    #[test]
    fn generator_is_deterministic_per_core() {
        let cfg = resolved(Some(StormSpec { every: 8, len: 2, hot: 2 }), 2);
        let mut a = TrafficGen::new(&cfg, 3);
        // A stream on a sampler another core built is the stream `new` builds.
        let shared = OnceLock::new();
        TrafficGen::sharing(&cfg, 0, &shared);
        let mut b = TrafficGen::sharing(&cfg, 3, &shared);
        let mut other = TrafficGen::new(&cfg, 4);
        let mut differs = false;
        for _ in 0..cfg.reqs_per_core {
            let ra = a.next_request();
            assert_eq!(ra, b.next_request());
            differs |= ra != other.next_request();
        }
        assert!(differs, "cores must get decorrelated streams");
    }

    #[test]
    fn arrivals_are_monotone_open_loop() {
        let cfg = resolved(None, 1);
        let mut g = TrafficGen::new(&cfg, 0);
        let mut last = 0;
        let mut sum = 0u64;
        for _ in 0..cfg.reqs_per_core {
            let r = g.next_request();
            assert!(r.arrival > last, "arrivals must strictly advance");
            sum += r.arrival - last;
            last = r.arrival;
        }
        let mean = sum / cfg.reqs_per_core;
        assert!((cfg.rate / 2..=cfg.rate * 2).contains(&mean), "mean gap {mean}");
    }

    #[test]
    fn storms_concentrate_on_the_hot_set() {
        let storm = StormSpec { every: 4, len: 2, hot: 2 };
        let cfg = resolved(Some(storm), 1);
        let mut g = TrafficGen::new(&cfg, 0);
        for i in 0..cfg.reqs_per_core {
            let r = g.next_request();
            if i % storm.every < storm.len {
                assert!(r.key <= storm.hot, "storm request {i} hit cold key {}", r.key);
            }
            assert!((1..=cfg.keys).contains(&r.key));
        }
    }

    #[test]
    fn tenants_partition_keys_by_phase() {
        let cfg = resolved(None, 4);
        let mut g = TrafficGen::new(&cfg, 0);
        let slice = cfg.keys / 4;
        for i in 0..cfg.reqs_per_core {
            let r = g.next_request();
            let tenant = (i * 4) / cfg.reqs_per_core;
            let lo = tenant * slice + 1;
            assert!(
                (lo..lo + slice).contains(&r.key),
                "phase {i}: tenant {tenant} drew key {} outside [{lo}, {})",
                r.key,
                lo + slice
            );
        }
    }

    #[test]
    fn read_mix_tracks_configuration() {
        let cfg = TrafficConfig { read_pct: 50, ..resolved(None, 1) };
        let cfg = TrafficConfig { reqs_per_core: 2000, ..cfg };
        let mut g = TrafficGen::new(&cfg, 0);
        let mut reads = 0u64;
        for _ in 0..cfg.reqs_per_core {
            if g.next_request().op != Op::NewOrder {
                reads += 1;
            }
        }
        let pct = reads * 100 / cfg.reqs_per_core;
        assert!((40..=60).contains(&pct), "read mix {pct}% far from 50%");
    }
}
