//! Output checks, computed apart from the program.
//!
//! Every check works on plain data copied out of the program's public
//! state (a [`PlantView`], an [`EdgeView`]) and recomputes the expected
//! answer with the benchmark's own arithmetic: its own Dijkstra, its own
//! per-fiber and per-node tallies, its own token and quota budgets. A
//! check returns the list of violations it found; an empty list passes.
//! No check compares against a stored copy of earlier output.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet, BinaryHeap};

use griphon::{ConnState, Controller};
use northbound::{AdmittedIntent, ServeOutcome, ServerConfig, Tier};

/// One wavelength held by a live connection: its primary plan or the
/// bridge plan of a bridge-and-roll in progress.
#[derive(Debug, Clone, PartialEq)]
pub struct HeldPlan {
    /// Raw connection id.
    pub conn: u32,
    /// A-end node index.
    pub from: usize,
    /// Z-end node index.
    pub to: usize,
    /// Fiber indices, A to Z.
    pub path: Vec<usize>,
    /// Wavelength index.
    pub lambda: u16,
    /// Transponder indices at the A and Z ends.
    pub ots: [usize; 2],
    /// True for a bridge plan.
    pub bridge: bool,
}

/// The parts of controller state the plant checks read.
#[derive(Debug, Clone)]
pub struct PlantView {
    /// Fiber end nodes and length in km, by fiber index.
    pub fibers: Vec<(usize, usize, f64)>,
    /// Adjacency `(fiber, far node)` per node, as `neighbors` reports it.
    pub adjacency: Vec<Vec<(usize, usize)>>,
    /// Lit wavelength count per fiber, as `lit_lambdas_on_fiber` reports it.
    pub lit: Vec<usize>,
    /// Free-wavelength mask per fiber.
    pub free_mask: Vec<u128>,
    /// Node of every installed transponder, by transponder index.
    pub ot_node: Vec<usize>,
    /// Idle transponders per node, as the program reports them.
    pub idle_ots: Vec<usize>,
    /// Live (non-terminal) connections: raw id and state.
    pub live: Vec<(u32, ConnState)>,
    /// Plans held by live connections.
    pub plans: Vec<HeldPlan>,
}

impl PlantView {
    /// Copy the checked state out of `ctl`.
    pub fn of(ctl: &Controller) -> PlantView {
        let net = &ctl.net;
        let nodes = net.roadm_count();
        let fibers = net
            .fiber_ids()
            .map(|f| {
                let l = net.fiber(f);
                (l.a.index(), l.b.index(), l.length_km())
            })
            .collect();
        let adjacency = net
            .roadm_ids()
            .map(|n| {
                net.neighbors(n)
                    .iter()
                    .map(|(f, m)| (f.index(), m.index()))
                    .collect()
            })
            .collect();
        let lit = net
            .fiber_ids()
            .map(|f| net.lit_lambdas_on_fiber(f))
            .collect();
        let free_mask = net.fiber_ids().map(|f| net.free_lambda_mask(f)).collect();
        let ot_node = net
            .transponder_ids()
            .map(|t| net.transponder(t).location.index())
            .collect();
        let mut idle_ots = vec![0usize; nodes];
        for t in net.transponder_ids() {
            let ot = net.transponder(t);
            if ot.is_idle() {
                idle_ots[ot.location.index()] += 1;
            }
        }
        let mut live = Vec::new();
        let mut plans = Vec::new();
        for c in ctl.connections().filter(|c| !c.state.is_terminal()) {
            live.push((c.id.raw(), c.state));
            let held = c
                .wavelength_plan()
                .map(|p| (p, false))
                .into_iter()
                .chain(c.bridge.as_ref().map(|p| (p, true)));
            for (p, bridge) in held {
                plans.push(HeldPlan {
                    conn: c.id.raw(),
                    from: c.from.index(),
                    to: c.to.index(),
                    path: p.path.iter().map(|f| f.index()).collect(),
                    lambda: p.lambda.index() as u16,
                    ots: [p.ot_src.index(), p.ot_dst.index()],
                    bridge,
                });
            }
        }
        PlantView {
            fibers,
            adjacency,
            lit,
            free_mask,
            ot_node,
            idle_ots,
            live,
            plans,
        }
    }
}

/// Shortest distance in km from `src` to every node over all fibers.
pub fn dijkstra_km(view: &PlantView, src: usize) -> Vec<f64> {
    let mut dist = vec![f64::INFINITY; view.adjacency.len()];
    let mut heap = BinaryHeap::new();
    dist[src] = 0.0;
    // Distances are non-negative floats: order them by their bit pattern.
    heap.push(Reverse((0f64.to_bits(), src)));
    while let Some(Reverse((d, n))) = heap.pop() {
        let d = f64::from_bits(d);
        if d > dist[n] {
            continue;
        }
        for &(f, m) in &view.adjacency[n] {
            let nd = d + view.fibers[f].2;
            if nd < dist[m] {
                dist[m] = nd;
                heap.push(Reverse((nd.to_bits(), m)));
            }
        }
    }
    dist
}

/// Resource conservation and path validity once the controller is idle:
///
/// - every live connection is Active;
/// - per fiber, the lit count equals the live plans (and bridges) on it;
/// - per node, idle transponders equal installed minus those held;
/// - every held path is loop-free and joins its endpoints, its
///   wavelength is lit on every hop and held by no other plan on that
///   fiber, and its length is at least the shortest km distance.
pub fn check_plant(view: &PlantView) -> Vec<String> {
    let mut bad = Vec::new();
    for &(id, state) in &view.live {
        if state != ConnState::Active {
            bad.push(format!("conn {id} is {state:?} once idle"));
        }
    }

    let mut on_fiber = vec![0usize; view.fibers.len()];
    let mut holder: BTreeMap<(usize, u16), u32> = BTreeMap::new();
    let mut held_ots: BTreeSet<usize> = BTreeSet::new();
    let mut shortest: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
    for p in &view.plans {
        for (end, (&ot, node)) in p.ots.iter().zip([p.from, p.to]).enumerate() {
            if view.ot_node.get(ot) != Some(&node) {
                bad.push(format!(
                    "conn {} end {end}: OT {ot} is not at node {node}",
                    p.conn
                ));
            }
            held_ots.insert(ot);
        }
        // Walk the path from the A end.
        let mut at = p.from;
        let mut seen = BTreeSet::from([at]);
        let mut km = 0.0;
        for &f in &p.path {
            let Some(&(a, b, len)) = view.fibers.get(f) else {
                bad.push(format!("conn {}: unknown fiber {f}", p.conn));
                break;
            };
            at = match (a == at, b == at) {
                (true, _) => b,
                (_, true) => a,
                _ => {
                    bad.push(format!(
                        "conn {}: fiber {f} does not touch node {at}",
                        p.conn
                    ));
                    break;
                }
            };
            if !seen.insert(at) {
                bad.push(format!("conn {}: path revisits node {at}", p.conn));
            }
            km += len;
            on_fiber[f] += 1;
            if view.free_mask[f] & (1u128 << p.lambda) != 0 {
                bad.push(format!(
                    "conn {}: λ{} not lit on fiber {f}",
                    p.conn, p.lambda
                ));
            }
            if let Some(other) = holder.insert((f, p.lambda), p.conn) {
                bad.push(format!(
                    "fiber {f} λ{} held by conn {other} and conn {}",
                    p.lambda, p.conn
                ));
            }
        }
        if at != p.to {
            bad.push(format!("conn {}: path ends at {at}, not {}", p.conn, p.to));
        }
        let best = shortest
            .entry(p.from)
            .or_insert_with(|| dijkstra_km(view, p.from))[p.to];
        if km + 1e-6 < best {
            bad.push(format!(
                "conn {}: path {km:.3} km is shorter than the shortest route {best:.3} km",
                p.conn
            ));
        }
    }

    for (f, (&lit, &held)) in view.lit.iter().zip(&on_fiber).enumerate() {
        if lit != held {
            bad.push(format!(
                "fiber {f}: {lit} λ lit but {held} held by live plans"
            ));
        }
    }
    let mut installed = vec![0usize; view.idle_ots.len()];
    let mut held = vec![0usize; view.idle_ots.len()];
    for (ot, &node) in view.ot_node.iter().enumerate() {
        installed[node] += 1;
        if held_ots.contains(&ot) {
            held[node] += 1;
        }
    }
    for (n, &idle) in view.idle_ots.iter().enumerate() {
        if idle + held[n] != installed[n] {
            bad.push(format!(
                "node {n}: {idle} idle OTs, {} installed, {} held",
                installed[n], held[n]
            ));
        }
    }
    bad
}

/// Live connections whose primary path crosses `fiber`, computed by the
/// benchmark before the cut.
pub fn impacted_by(view: &PlantView, fiber: usize) -> BTreeSet<u32> {
    view.plans
        .iter()
        .filter(|p| !p.bridge && p.path.contains(&fiber))
        .map(|p| p.conn)
        .collect()
}

/// After a cut: the connections the program failed equal the impacted
/// set the benchmark computed.
pub fn check_cut(expected: &BTreeSet<u32>, failed: &BTreeSet<u32>) -> Vec<String> {
    if expected == failed {
        return Vec::new();
    }
    vec![format!(
        "cut failed {:?}, benchmark expected {:?}",
        failed.difference(expected).collect::<Vec<_>>(),
        expected.difference(failed).collect::<Vec<_>>()
    )]
}

/// Once idle after a cut: every impacted connection is Active on a path
/// that avoids the cut fiber.
pub fn check_restored(view: &PlantView, impacted: &BTreeSet<u32>, fiber: usize) -> Vec<String> {
    let mut bad = Vec::new();
    for &id in impacted {
        let active = view
            .live
            .iter()
            .any(|&(c, s)| c == id && s == ConnState::Active);
        let plan = view.plans.iter().find(|p| p.conn == id && !p.bridge);
        match plan {
            Some(p) if active && !p.path.contains(&fiber) => {}
            Some(_) if active => bad.push(format!("conn {id} still routed over cut fiber {fiber}")),
            _ => bad.push(format!("conn {id} not Active after restoration")),
        }
    }
    bad
}

/// The edge's answers to one serve run, as the checks read them.
#[derive(Debug, Clone)]
pub struct EdgeView {
    /// Requests offered.
    pub offered: u64,
    /// Admitted per tier.
    pub admitted_per_tier: [u64; 3],
    /// 429s per tier.
    pub rate_limited: [u64; 3],
    /// 403s per tier.
    pub quota: [u64; 3],
    /// 503s per tier.
    pub shed: [u64; 3],
    /// 401s.
    pub unauthorized: u64,
    /// Still queued at the horizon.
    pub queued: u64,
    /// Admitted intents the controller refused.
    pub controller_refusals: u64,
    /// The admitted stream.
    pub admitted: Vec<AdmittedIntent>,
}

impl EdgeView {
    /// Copy the checked fields out of a finished run.
    pub fn of(offered: u64, out: &ServeOutcome) -> EdgeView {
        EdgeView {
            offered,
            admitted_per_tier: out.admitted_per_tier,
            rate_limited: out.rate_limited_per_tier,
            quota: out.quota_per_tier,
            shed: out.shed_per_tier,
            unauthorized: out.unauthorized,
            queued: out.final_depth.iter().map(|&d| d as u64).sum(),
            controller_refusals: out.controller_refusals,
            admitted: out.admitted.clone(),
        }
    }

    /// Requests the outcome accounting covers.
    pub fn accounted(&self) -> u64 {
        let s = |a: &[u64; 3]| a.iter().sum::<u64>();
        s(&self.admitted_per_tier)
            + s(&self.rate_limited)
            + s(&self.quota)
            + s(&self.shed)
            + self.unauthorized
            + self.queued
            + self.controller_refusals
    }
}

/// Tier of tenant `idx` by the published rule: `idx % 100` is 0 for
/// premium, 1–9 for standard, otherwise free.
pub fn tier_of(idx: u64) -> Tier {
    match idx % 100 {
        0 => Tier::Premium,
        1..=9 => Tier::Standard,
        _ => Tier::Free,
    }
}

/// Edge checks: accounting sums to the offered count; per-tenant
/// admissions stay within the token bucket's burst + rate × horizon and
/// within the tenant's milli-gbps-hour budget; tiers follow `idx % 100`;
/// and under sustained overload admitted equals the drain budget times
/// the number of drain ticks.
pub fn check_edge(view: &EdgeView, cfg: &ServerConfig, horizon_ns: u64) -> Vec<String> {
    let mut bad = Vec::new();
    if view.accounted() != view.offered {
        bad.push(format!(
            "outcome accounting covers {} of {} offered requests",
            view.accounted(),
            view.offered
        ));
    }
    if view.controller_refusals != 0 {
        bad.push(format!(
            "controller refused {} admitted intents",
            view.controller_refusals
        ));
    }
    let mut per_tenant: BTreeMap<u64, (u64, u64)> = BTreeMap::new();
    let mut per_tier = [0u64; 3];
    for a in &view.admitted {
        let tier = tier_of(a.tenant);
        if a.tier != tier {
            bad.push(format!(
                "tenant {} admitted as {:?}, rule says {tier:?}",
                a.tenant, a.tier
            ));
        }
        per_tier[tier.index()] += 1;
        let secs = (a.end.as_nanos() - a.start.as_nanos()) / 1_000_000_000;
        // Milli-gbps-hours, rounded down per reservation.
        let mgh = (a.rate_bps as u128 * secs as u128 / 3_600_000_000) as u64;
        let e = per_tenant.entry(a.tenant).or_default();
        e.0 += 1;
        e.1 += mgh;
    }
    if per_tier != view.admitted_per_tier {
        bad.push(format!(
            "admitted per tier {:?}, stream says {per_tier:?}",
            view.admitted_per_tier
        ));
    }
    for (&tenant, &(count, mgh)) in &per_tenant {
        let t = tier_of(tenant).index();
        let tokens = cfg.bucket_burst[t] as u128
            + cfg.bucket_rate_mt[t] as u128 * horizon_ns as u128 / 1_000_000_000_000;
        if count as u128 > tokens {
            bad.push(format!(
                "tenant {tenant}: {count} admitted, bucket allows {tokens}"
            ));
        }
        if mgh > cfg.quota[t].tenant_budget_mgh {
            bad.push(format!(
                "tenant {tenant}: {mgh} mgh admitted, budget {}",
                cfg.quota[t].tenant_budget_mgh
            ));
        }
    }
    let drains = horizon_ns / cfg.drain_interval.as_nanos();
    let admitted: u64 = view.admitted_per_tier.iter().sum();
    if admitted != cfg.drain_budget as u64 * drains {
        bad.push(format!(
            "admitted {admitted}, but {drains} drain ticks × budget {} under overload",
            cfg.drain_budget
        ));
    }
    bad
}

/// Two digests that must agree.
pub fn check_digest(what: &str, expected: u32, got: u32) -> Vec<String> {
    if expected == got {
        Vec::new()
    } else {
        vec![format!("{what}: digest {got:08x}, expected {expected:08x}")]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use griphon::ControllerConfig;
    use photonic::{LineRate, PhotonicNetwork};
    use simcore::{DataRate, SimTime};

    /// Two live wavelengths on the paper testbed, controller idle.
    fn idle_testbed() -> (Controller, photonic::TestbedIds) {
        let (net, ids) = PhotonicNetwork::testbed(4);
        let mut ctl = Controller::new(net, ControllerConfig::default());
        let c = ctl.register_tenant("t", DataRate::from_gbps(1_000));
        ctl.request_wavelength(c, ids.i, ids.iv, LineRate::Gbps10)
            .unwrap();
        ctl.request_wavelength(c, ids.ii, ids.iv, LineRate::Gbps10)
            .unwrap();
        ctl.run_until_idle();
        (ctl, ids)
    }

    #[test]
    fn a_consistent_plant_passes() {
        let (ctl, _) = idle_testbed();
        let view = PlantView::of(&ctl);
        assert_eq!(view.plans.len(), 2);
        assert_eq!(check_plant(&view), Vec::<String>::new());
    }

    #[test]
    fn a_miscounted_fiber_is_rejected() {
        let (ctl, _) = idle_testbed();
        let mut view = PlantView::of(&ctl);
        let f = view.plans[0].path[0];
        view.lit[f] += 1;
        let bad = check_plant(&view);
        assert!(
            bad.iter().any(|b| b.starts_with(&format!("fiber {f}:"))),
            "{bad:?}"
        );
    }

    #[test]
    fn a_leaked_transponder_is_rejected() {
        let (ctl, _) = idle_testbed();
        let mut view = PlantView::of(&ctl);
        let node = view.plans[0].from;
        view.idle_ots[node] -= 1;
        let bad = check_plant(&view);
        assert!(
            bad.iter().any(|b| b.starts_with(&format!("node {node}:"))),
            "{bad:?}"
        );
    }

    #[test]
    fn a_broken_or_looping_path_is_rejected() {
        let (ctl, ids) = idle_testbed();
        let mut view = PlantView::of(&ctl);
        // Walk back over the first hop: the path revisits its start and
        // no longer ends at the Z end.
        let first = view.plans[0].path[0];
        view.plans[0].path.push(first);
        let bad = check_plant(&view);
        assert!(bad.iter().any(|b| b.contains("revisits")), "{bad:?}");
        assert!(bad.iter().any(|b| b.contains("ends at")), "{bad:?}");

        let mut view = PlantView::of(&ctl);
        view.plans[0].path = vec![ids.f_ii_iii.index()];
        let bad = check_plant(&view);
        assert!(bad.iter().any(|b| b.contains("does not touch")), "{bad:?}");
    }

    #[test]
    fn a_doubly_held_or_dark_wavelength_is_rejected() {
        let (ctl, _) = idle_testbed();
        let mut view = PlantView::of(&ctl);
        let mut twin = view.plans[0].clone();
        twin.conn += 100;
        view.plans.push(twin);
        let bad = check_plant(&view);
        assert!(bad.iter().any(|b| b.contains("held by conn")), "{bad:?}");

        let mut view = PlantView::of(&ctl);
        let f = view.plans[0].path[0];
        view.free_mask[f] |= 1u128 << view.plans[0].lambda;
        let bad = check_plant(&view);
        assert!(bad.iter().any(|b| b.contains("not lit")), "{bad:?}");
    }

    #[test]
    fn a_path_shorter_than_the_shortest_route_is_rejected() {
        let (ctl, _) = idle_testbed();
        let mut view = PlantView::of(&ctl);
        // Hide the path's fibers from the adjacency the benchmark's own
        // Dijkstra walks: the reported path now beats every route it finds.
        let hidden: Vec<usize> = view.plans[0].path.clone();
        for edges in &mut view.adjacency {
            edges.retain(|(f, _)| !hidden.contains(f));
        }
        let bad = check_plant(&view);
        assert!(
            bad.iter().any(|b| b.contains("shorter than the shortest")),
            "{bad:?}"
        );
    }

    #[test]
    fn a_connection_not_active_once_idle_is_rejected() {
        let (ctl, _) = idle_testbed();
        let mut view = PlantView::of(&ctl);
        view.live[0].1 = ConnState::Failed;
        assert!(!check_plant(&view).is_empty());
    }

    #[test]
    fn cut_sets_and_restoration_are_compared() {
        let (mut ctl, ids) = idle_testbed();
        let view = PlantView::of(&ctl);
        let fiber = view.plans[0].path[0];
        let impacted = impacted_by(&view, fiber);
        assert!(impacted.contains(&view.plans[0].conn));
        assert!(check_cut(&impacted, &impacted).is_empty());
        assert!(!check_cut(&impacted, &BTreeSet::new()).is_empty());

        ctl.inject_fiber_cut(photonic::FiberId::from_index(fiber), 0);
        ctl.run_until_idle();
        let after = PlantView::of(&ctl);
        assert_eq!(
            check_restored(&after, &impacted, fiber),
            Vec::<String>::new()
        );
        // Planted: the impacted connection still on the cut fiber.
        assert!(!check_restored(&view, &impacted, fiber).is_empty());
        let _ = ids;
    }

    fn admitted(tenant: u64, rate_bps: u64, secs: u64) -> AdmittedIntent {
        let start = SimTime::from_secs(3_600);
        AdmittedIntent {
            at: SimTime::from_secs(1),
            tier: tier_of(tenant),
            pair: 0,
            rate_bps,
            start,
            end: start + simcore::SimDuration::from_secs(secs),
            tenant,
            abusive: false,
        }
    }

    /// A 1 s horizon at 10 drain ticks × budget 1: ten admissions from
    /// ten free-tier tenants, everything else shed.
    fn edge_view() -> (EdgeView, ServerConfig, u64) {
        let cfg = ServerConfig {
            drain_budget: 1,
            ..ServerConfig::default()
        };
        let admitted: Vec<_> = (0..10)
            .map(|t| admitted(10 + t, 1_000_000_000, 600))
            .collect();
        let view = EdgeView {
            offered: 25,
            admitted_per_tier: [0, 0, 10],
            rate_limited: [0, 0, 0],
            quota: [0, 0, 0],
            shed: [0, 0, 15],
            unauthorized: 0,
            queued: 0,
            controller_refusals: 0,
            admitted,
        };
        (view, cfg, 1_000_000_000)
    }

    #[test]
    fn a_consistent_edge_run_passes() {
        let (view, cfg, horizon) = edge_view();
        assert_eq!(check_edge(&view, &cfg, horizon), Vec::<String>::new());
    }

    #[test]
    fn edge_accounting_leaks_are_rejected() {
        let (mut view, cfg, horizon) = edge_view();
        view.offered += 1;
        assert!(check_edge(&view, &cfg, horizon)[0].contains("accounting"));
        let (mut view, cfg, horizon) = edge_view();
        view.controller_refusals = 1;
        view.shed[2] -= 1;
        assert!(check_edge(&view, &cfg, horizon)
            .iter()
            .any(|b| b.contains("controller refused")));
    }

    #[test]
    fn an_over_budget_admitted_list_is_rejected() {
        let (mut view, cfg, horizon) = edge_view();
        // One free tenant: 10 Gb/s for 2 h is 20 gbps-hours, twice the
        // free tier's 10 000 milli-gbps-hour budget.
        view.admitted[0] = admitted(10, 10_000_000_000, 7_200);
        let bad = check_edge(&view, &cfg, horizon);
        assert!(bad.iter().any(|b| b.contains("mgh admitted")), "{bad:?}");
    }

    #[test]
    fn admissions_beyond_the_token_bucket_are_rejected() {
        let (mut view, cfg, horizon) = edge_view();
        // Free tier: burst 3 + 0.1 tokens/s × 1 s ⇒ at most 3.
        for a in view.admitted.iter_mut().take(4) {
            a.tenant = 10;
        }
        let bad = check_edge(&view, &cfg, horizon);
        assert!(bad.iter().any(|b| b.contains("bucket allows 3")), "{bad:?}");
    }

    #[test]
    fn a_wrong_tier_or_idle_drain_is_rejected() {
        let (mut view, cfg, horizon) = edge_view();
        view.admitted[0].tier = Tier::Premium;
        assert!(check_edge(&view, &cfg, horizon)
            .iter()
            .any(|b| b.contains("rule says")));

        let (mut view, cfg, horizon) = edge_view();
        view.admitted.pop();
        view.admitted_per_tier[2] -= 1;
        view.shed[2] += 1;
        let bad = check_edge(&view, &cfg, horizon);
        assert_eq!(bad.len(), 1, "{bad:?}");
        assert!(bad[0].contains("drain ticks"));
    }

    #[test]
    fn mismatched_digests_are_rejected() {
        assert!(check_digest("x", 1, 1).is_empty());
        assert_eq!(check_digest("x", 1, 2).len(), 1);
    }
}
