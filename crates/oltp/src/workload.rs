//! The OLTP kernel: order / payment / inventory tables with
//! secondary-index maintenance, served open-loop.
//!
//! Each core runs one server thread draining its own deterministic
//! request stream (see [`crate::traffic`]). A *new-order* transaction
//! reads a Zipf-picked inventory row, decrements its stock, inserts an
//! order row and a payment row, and updates the customer secondary
//! index (order count + last order id) — five logical accesses across
//! four tables, all atomic. Read requests either inspect an inventory
//! row (*stock-level*) or chase the secondary index to the referenced
//! order and payment rows (*order-status*).
//!
//! Latency is recorded per request at commit, measured from the
//! request's **intended arrival cycle**: when the server runs behind
//! the open-loop schedule, the queueing delay stays in the sample (no
//! coordinated omission).

use crate::traffic::{Op, TrafficConfig, TrafficGen, Zipfian, CUSTOMERS_PER_CORE};
use std::sync::OnceLock;
use suv_sim::{CoreFuture, SetupCtx, ThreadCtx, Workload};
use suv_stamp::ds::TxHashMap;
use suv_stamp::SuiteScale;
use suv_types::{Addr, TxSite};

const SITE_NEW_ORDER: TxSite = TxSite(90);
const SITE_STOCK_LEVEL: TxSite = TxSite(91);
const SITE_ORDER_STATUS: TxSite = TxSite(92);

/// Payment amount of an order for inventory item `item`.
fn price(item: u64) -> u64 {
    item % 7 + 1
}

/// The OLTP workload.
pub struct Oltp {
    name: &'static str,
    cfg: TrafficConfig,
    /// The key sampler, built by the first core to run: in the simulated
    /// region, like the per-core builds it replaces, but once per cell.
    zipf: OnceLock<Zipfian>,
    inventory: TxHashMap,
    orders: TxHashMap,
    payments: TxHashMap,
    /// Secondary index: customer -> `count << 32 | last_order_id`.
    cust_index: TxHashMap,
    initial_stock: u64,
    /// Per-thread successful-order counters (64-byte stride).
    placed: Addr,
    threads: usize,
}

impl Oltp {
    /// Default traffic (Zipf 0.99, 90:10 read/write) at the given scale.
    pub fn new(scale: SuiteScale) -> Self {
        Self::with_traffic(scale, TrafficConfig::default())
    }

    /// The hot-key-storm variant: write-heavy (50:50) with periodic
    /// storms hammering the two hottest keys — the configuration the
    /// committed `results/` comparison uses.
    pub fn storm(scale: SuiteScale) -> Self {
        let cfg = TrafficConfig {
            read_pct: 50,
            storm: Some(crate::traffic::StormSpec { every: 32, len: 16, hot: 2 }),
            ..TrafficConfig::default()
        };
        let mut w = Self::with_traffic(scale, cfg);
        w.name = "oltp-storm";
        w
    }

    /// Custom traffic (the `--traffic` CLI path). Zero-valued `rate`,
    /// `reqs` and `keys` knobs resolve to scale defaults.
    pub fn with_traffic(scale: SuiteScale, mut cfg: TrafficConfig) -> Self {
        let (rate, reqs, keys) = match scale {
            SuiteScale::Tiny => (300, 24, 128),
            SuiteScale::Paper => (400, 128, 2048),
            // Requests are per core (open loop), so offered load scales
            // with the machine; a wide key space keeps the Zipf head from
            // serializing 256 servers.
            SuiteScale::Scale => (400, 32, 8192),
        };
        if cfg.rate == 0 {
            cfg.rate = rate;
        }
        if cfg.reqs_per_core == 0 {
            cfg.reqs_per_core = reqs;
        }
        if cfg.keys == 0 {
            cfg.keys = keys;
        }
        Oltp {
            name: "oltp",
            cfg,
            zipf: OnceLock::new(),
            inventory: TxHashMap::placeholder(),
            orders: TxHashMap::placeholder(),
            payments: TxHashMap::placeholder(),
            cust_index: TxHashMap::placeholder(),
            initial_stock: 0,
            placed: 0,
            threads: 0,
        }
    }

    /// The resolved traffic configuration.
    pub fn traffic(&self) -> &TrafficConfig {
        &self.cfg
    }
}

impl Workload for Oltp {
    fn name(&self) -> &'static str {
        self.name
    }

    fn setup(&mut self, ctx: &mut SetupCtx<'_>) {
        self.threads = ctx.n_cores();
        let total_reqs = self.threads as u64 * self.cfg.reqs_per_core;
        assert!(total_reqs < u64::from(u32::MAX), "order ids must fit the index's 32-bit field");
        // Stock can never run out: hot keys stay writable through storms.
        self.initial_stock = total_reqs;
        self.inventory = TxHashMap::new(ctx, (self.cfg.keys * 2).next_power_of_two());
        self.orders = TxHashMap::new(ctx, (total_reqs * 2).next_power_of_two());
        self.payments = TxHashMap::new(ctx, (total_reqs * 2).next_power_of_two());
        let customers = self.threads as u64 * CUSTOMERS_PER_CORE;
        self.cust_index = TxHashMap::new(ctx, (customers * 2).next_power_of_two());
        self.placed = ctx.alloc_lines(self.threads as u64 * 64);
        for item in 1..=self.cfg.keys {
            self.inventory.insert_setup(ctx, item, self.initial_stock);
        }
    }

    fn run<'a>(&'a self, tid: usize, ctx: &'a mut ThreadCtx) -> CoreFuture<'a> {
        Box::pin(async move {
            let mut gen = TrafficGen::sharing(&self.cfg, tid, &self.zipf);
            let (inventory, orders, payments, cust_index) =
                (self.inventory, self.orders, self.payments, self.cust_index);
            let mut made = 0u64;
            for i in 0..self.cfg.reqs_per_core {
                let req = gen.next_request();
                ctx.idle_until(req.arrival);
                match req.op {
                    Op::NewOrder => {
                        let oid = tid as u64 * self.cfg.reqs_per_core + i + 1;
                        let key = req.key;
                        let customer = req.customer;
                        let mut ok = false;
                        ctx.txn(SITE_NEW_ORDER, async |tx| {
                            ok = false;
                            let stock = inventory.get(tx, key).await?.unwrap_or(0);
                            tx.work(20);
                            if stock > 0 {
                                inventory.insert(tx, key, stock - 1).await?;
                                orders.insert(tx, oid, key).await?;
                                payments.insert(tx, oid, price(key)).await?;
                                let prev = cust_index.get(tx, customer).await?.unwrap_or(0);
                                let count = prev >> 32;
                                cust_index.insert(tx, customer, (count + 1) << 32 | oid).await?;
                                ok = true;
                            }
                            Ok(())
                        })
                        .await;
                        if ok {
                            made += 1;
                        }
                    }
                    Op::StockLevel => {
                        let key = req.key;
                        ctx.txn(SITE_STOCK_LEVEL, async |tx| {
                            let _ = inventory.get(tx, key).await?;
                            tx.work(10);
                            Ok(())
                        })
                        .await;
                    }
                    Op::OrderStatus => {
                        let customer = req.customer;
                        ctx.txn(SITE_ORDER_STATUS, async |tx| {
                            if let Some(entry) = cust_index.get(tx, customer).await? {
                                let last_oid = entry & 0xFFFF_FFFF;
                                if let Some(item) = orders.get(tx, last_oid).await? {
                                    let pay = payments.get(tx, last_oid).await?.unwrap_or(0);
                                    tx.work(5 + u64::from(pay == price(item)));
                                }
                            }
                            tx.work(5);
                            Ok(())
                        })
                        .await;
                    }
                }
                ctx.record_latency(ctx.now() - req.arrival);
            }
            ctx.store(self.placed + tid as u64 * 64, made).await;
            ctx.barrier().await;
        })
    }

    fn verify(&self, ctx: &mut SetupCtx<'_>) {
        // Inventory conservation: every unit of stock removed corresponds
        // to exactly one order row, one payment row, one secondary-index
        // count, and one per-thread success tick.
        let initial_total = self.cfg.keys * self.initial_stock;
        let remaining = self.inventory.sum_values_setup(ctx);
        let taken = initial_total - remaining;
        let orders_cnt = self.orders.len_setup(ctx);
        let payments_cnt = self.payments.len_setup(ctx);
        let by_threads: u64 =
            (0..self.threads as u64).map(|t| ctx.peek(self.placed + t * 64)).sum();
        assert_eq!(taken, orders_cnt, "oltp: stock removed != order rows");
        assert_eq!(orders_cnt, payments_cnt, "oltp: order rows != payment rows");
        assert_eq!(orders_cnt, by_threads, "oltp: thread counters inconsistent");

        // Secondary-index consistency: counts sum to the order count and
        // every last-order pointer dereferences to a live order.
        let mut index_orders = 0u64;
        for c in 1..=self.threads as u64 * CUSTOMERS_PER_CORE {
            if let Some(entry) = self.cust_index.get_setup(ctx, c) {
                index_orders += entry >> 32;
                let last_oid = entry & 0xFFFF_FFFF;
                assert!(
                    self.orders.get_setup(ctx, last_oid).is_some(),
                    "oltp: customer {c} index points at missing order {last_oid}"
                );
            }
        }
        assert_eq!(index_orders, orders_cnt, "oltp: secondary index out of sync");

        // Payment integrity: every order's payment row carries its price.
        let mut expected_pay = 0u64;
        for oid in 1..=self.threads as u64 * self.cfg.reqs_per_core {
            if let Some(item) = self.orders.get_setup(ctx, oid) {
                assert_eq!(
                    self.payments.get_setup(ctx, oid),
                    Some(price(item)),
                    "oltp: order {oid} has a bad payment row"
                );
                expected_pay += price(item);
            }
        }
        assert_eq!(self.payments.sum_values_setup(ctx), expected_pay);
        if self.cfg.read_pct < 100 {
            assert!(orders_cnt > 0, "oltp: no order ever committed");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use suv_sim::run_workload;
    use suv_types::{MachineConfig, SchemeKind};

    fn smoke(mut w: Oltp, scheme: SchemeKind) -> suv_sim::RunResult {
        let cfg = MachineConfig::small_test();
        let r = run_workload(&cfg, scheme, &mut w);
        assert!(r.stats.tx.commits > 0, "oltp/{scheme:?}: nothing committed");
        r
    }

    #[test]
    fn verifies_under_all_schemes() {
        for s in SchemeKind::ALL {
            smoke(Oltp::new(SuiteScale::Tiny), s);
            smoke(Oltp::storm(SuiteScale::Tiny), s);
        }
    }

    #[test]
    fn records_one_latency_sample_per_request() {
        let r = smoke(Oltp::new(SuiteScale::Tiny), SchemeKind::SuvTm);
        let lat = r.latency.expect("open-loop run must record latencies");
        let cfg = MachineConfig::small_test();
        let w = Oltp::new(SuiteScale::Tiny);
        assert_eq!(lat.count(), cfg.n_cores as u64 * w.traffic().reqs_per_core);
        let s = lat.summary();
        assert!(s.p50 > 0 && s.p50 <= s.p99 && s.p99 <= s.p999 && s.p999 <= s.max);
    }

    #[test]
    fn latency_profile_is_deterministic() {
        let a = smoke(Oltp::storm(SuiteScale::Tiny), SchemeKind::SuvTm);
        let b = smoke(Oltp::storm(SuiteScale::Tiny), SchemeKind::SuvTm);
        assert_eq!(a.stats.cycles, b.stats.cycles);
        assert_eq!(a.latency, b.latency);
    }

    #[test]
    fn storms_conflict_more_than_baseline() {
        let base = smoke(Oltp::new(SuiteScale::Tiny), SchemeKind::LogTmSe);
        let storm = smoke(Oltp::storm(SuiteScale::Tiny), SchemeKind::LogTmSe);
        let rate = |r: &suv_sim::RunResult| {
            (r.stats.tx.nacks_received + r.stats.tx.aborts) as f64
                / r.stats.tx.commits.max(1) as f64
        };
        assert!(
            rate(&storm) > rate(&base),
            "storm ({}) must out-conflict baseline ({})",
            rate(&storm),
            rate(&base)
        );
    }

    #[test]
    fn custom_traffic_resolves_scale_defaults() {
        let w = Oltp::with_traffic(
            SuiteScale::Tiny,
            crate::traffic::parse_traffic_spec("zipf=0.5,rw=80:20").unwrap(),
        );
        let t = w.traffic();
        assert_eq!(t.theta, 0.5);
        assert_eq!(t.read_pct, 80);
        assert!(t.rate > 0 && t.reqs_per_core > 0 && t.keys > 0, "defaults must resolve");
    }
}
