/**
 * @file
 * google-benchmark microbenchmarks of the simulator's hot paths:
 * the RNG, the arbiter, link accept/pop, router tick (idle and
 * loaded), and a full-system cycle at the paper's 64-rack scale.
 * These guard the simulator's own performance, which bounds how much
 * of the paper's design space the figure benches can sweep.
 *
 * Regression workflow: run with
 *     bench_sim_microbench --benchmark_format=json \
 *         --benchmark_out=BENCH_sim_microbench.json
 * and compare against the committed baseline at the repo root with
 *     python3 bench/perf_compare.py BENCH_sim_microbench.json NEW.json
 * The BM_SystemCycleIdle / BM_SystemCycleIdleNoElision pair measures
 * the idle-elision win within a single run (machine-independent);
 * perf_compare.py --expect-ratio asserts it stays >= 3x.
 * BM_PowerAccountingLedger times one epoch's power accounting pass
 * over the SoA ledger at 16x16. BM_Mesh32CycleLight and BM_KernelWakePark track the large-fabric
 * scheduling cost (kernel wake/park and input polling).
 * BM_BoundaryDelivery times one flit and its credit through a boundary
 * channel's stage/publish/drain cycle.
 */

#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "core/experiment.hh"
#include "core/poe_system.hh"
#include "network/boundary.hh"
#include "network/power_report.hh"
#include "phy/power_ledger.hh"
#include "router/router.hh"

using namespace oenet;

namespace {

void
BM_RngNext(benchmark::State &state)
{
    Rng rng(1);
    for (auto _ : state)
        benchmark::DoNotOptimize(rng.next());
}
BENCHMARK(BM_RngNext);

void
BM_RngPoisson(benchmark::State &state)
{
    Rng rng(1);
    for (auto _ : state)
        benchmark::DoNotOptimize(rng.poisson(2.0));
}
BENCHMARK(BM_RngPoisson);

void
BM_ArbiterPick(benchmark::State &state)
{
    RoundRobinArbiter arb(12);
    std::uint64_t req = 0b101001011011;
    for (auto _ : state)
        benchmark::DoNotOptimize(arb.pick(req));
}
BENCHMARK(BM_ArbiterPick);

void
BM_LinkAcceptPop(benchmark::State &state)
{
    auto levels = BitrateLevelTable::linear(5.0, 10.0, 6);
    LinkPowerLedger ledger(1);
    OpticalLink link("b", LinkKind::kInterRouter, levels,
                     OpticalLink::Params{}, ledger);
    Flit f;
    f.flags = Flit::kHeadFlag | Flit::kTailFlag;
    Cycle t = 0;
    for (auto _ : state) {
        if (link.canAccept(t))
            link.accept(t, f);
        while (link.hasArrival(t))
            benchmark::DoNotOptimize(link.popArrival(t));
        t++;
    }
}
BENCHMARK(BM_LinkAcceptPop);

void
BM_SystemCycleIdle(benchmark::State &state)
{
    SystemConfig cfg; // full 64-rack system, idle elision on (default)
    PoeSystem sys(cfg);
    sys.run(5000); // let the policy settle
    for (auto _ : state)
        sys.run(1);
}
BENCHMARK(BM_SystemCycleIdle)->Unit(benchmark::kMicrosecond);

void
BM_SystemCycleIdleNoElision(benchmark::State &state)
{
    SystemConfig cfg;
    cfg.idleElision = false; // tick all 64 routers + 512 nodes anyway
    PoeSystem sys(cfg);
    sys.run(5000);
    for (auto _ : state)
        sys.run(1);
}
BENCHMARK(BM_SystemCycleIdleNoElision)->Unit(benchmark::kMicrosecond);

void
BM_SystemCycleLoaded(benchmark::State &state)
{
    SystemConfig cfg;
    PoeSystem sys(cfg);
    sys.setTraffic(makeTraffic(TrafficSpec::uniform(2.0, 4, 3), cfg));
    sys.run(5000);
    for (auto _ : state)
        sys.run(1);
}
BENCHMARK(BM_SystemCycleLoaded)->Unit(benchmark::kMicrosecond);

void
BM_SmallSystemCycleLoaded(benchmark::State &state)
{
    SystemConfig cfg;
    cfg.meshX = 2;
    cfg.meshY = 2;
    cfg.clusterSize = 2;
    PoeSystem sys(cfg);
    sys.setTraffic(makeTraffic(TrafficSpec::uniform(0.3, 4, 3), cfg));
    sys.run(2000);
    for (auto _ : state)
        sys.run(1);
}
BENCHMARK(BM_SmallSystemCycleLoaded)->Unit(benchmark::kMicrosecond);

// One cycle of a large, lightly loaded fabric: 32x32x8 (1 024 routers,
// 8 192 nodes) at uniform 2.0 packets/cycle. Most components are
// parked at any instant, so the cost is dominated by waking and
// parking the few that carry a flit and by polling their inputs —
// the per-cycle scheduling tax that grows with the fabric, not with
// the load. One shard: auto sharding would split the fabric across the
// machine's cores and time the barrier instead.
void
BM_Mesh32CycleLight(benchmark::State &state)
{
    SystemConfig cfg;
    cfg.meshX = 32;
    cfg.meshY = 32;
    cfg.shards = 1;
    PoeSystem sys(cfg);
    sys.setTraffic(makeTraffic(TrafficSpec::uniform(2.0, 4, 3), cfg));
    sys.run(2000);
    for (auto _ : state)
        sys.run(1);
}
BENCHMARK(BM_Mesh32CycleLight)->Unit(benchmark::kMicrosecond);

// The kernel's wake/park round trip in isolation: 4 096 components
// that park after every tick and a waker that wakes 32 of them per
// cycle, spread over the whole tick order, half due this cycle (ahead
// of the pass cursor) and half next cycle (through the wake heap).
// That is the pattern a flit hop imposes on the routers of a lightly
// loaded fabric; its cost must not grow with the awake population.
void
BM_KernelWakePark(benchmark::State &state)
{
    struct Parker final : Ticking
    {
        std::uint64_t ticks = 0;
        void tick(Cycle) override { ticks++; }
        Cycle nextWakeCycle(Cycle) override { return kNeverCycle; }
    };
    struct Waker final : Ticking
    {
        std::vector<Parker> *parkers = nullptr;
        std::size_t next = 0;
        void tick(Cycle now) override
        {
            for (int i = 0; i < 32; i++) {
                next = (next + 2654435761u) % parkers->size();
                (*parkers)[next].wakeAt(now + static_cast<Cycle>(i & 1));
            }
        }
    };
    Kernel k;
    Waker waker;
    std::vector<Parker> parkers(4096);
    waker.parkers = &parkers;
    k.addTicking(&waker);
    for (Parker &p : parkers)
        k.addTicking(&p);
    k.run(16);
    for (auto _ : state)
        k.step();
    benchmark::DoNotOptimize(parkers[0].ticks);
}
BENCHMARK(BM_KernelWakePark);

// A hand-wired router held at saturation: four direction inputs feed
// endless 4-flit packets with rotating destinations while the harness
// plays upstream (respects credits) and downstream (returns credits).
// Every tick runs every stage (switch traversal, SA nomination and
// grant, VA request collection, route computation) over the SoA hot
// state, and each stage walks only the set bits of its mask: the four
// fed inputs of six, the outputs they requested, and the VCs waiting
// in RC or VA. This is the loaded path the fig7 benches spend their
// time in.
void
BM_LoadedRouterTick(benchmark::State &state)
{
    constexpr int kCluster = 2;
    constexpr int kVcDepth = 8; // 16 deep / 2 VCs
    MeshTopology mesh(2, 2, kCluster);
    BitrateLevelTable levels = BitrateLevelTable::linear(5.0, 10.0, 6);
    Router::Params rp;
    rp.numVcs = 2;
    rp.bufferDepthPerPort = 16;
    Router router("r0", 0, mesh, rp);

    struct Probe final : CreditSink
    {
        int returned[8][2] = {};
        void returnCredit(int port, int vc, Cycle) override
        {
            returned[port][vc]++;
        }
    } probe;

    int ports = mesh.portsPerRouter();
    OpticalLink::Params lp;
    LinkPowerLedger ledger(rp.numVcs);
    std::vector<std::unique_ptr<OpticalLink>> ins, outs;
    for (int p = 0; p < ports; p++) {
        ins.push_back(std::make_unique<OpticalLink>(
            "in" + std::to_string(p), LinkKind::kInterRouter, levels,
            lp, ledger));
        outs.push_back(std::make_unique<OpticalLink>(
            "out" + std::to_string(p), LinkKind::kInterRouter, levels,
            lp, ledger));
        router.connectInput(p, ins[p].get(), &probe, p);
        router.connectOutput(p, outs[p].get(), kVcDepth);
    }

    // Per direction port: a looping stream of flitized packets, VCs
    // alternating per packet, destinations rotating over all 8 nodes.
    struct Feeder
    {
        std::vector<Flit> flits;
        std::size_t next = 0;
        int sent[2] = {};
    };
    std::vector<Feeder> feeders(static_cast<std::size_t>(ports));
    PacketId id = 1;
    std::vector<Flit> pkt;
    for (int p = kCluster; p < ports; p++) {
        for (int i = 0; i < 16; i++) {
            pkt.clear();
            flitizePacket(pkt, id, 0,
                          static_cast<NodeId>(id * 3 % 8), 4, 0);
            for (Flit &f : pkt) {
                f.vc = static_cast<std::uint8_t>(i & 1);
                feeders[static_cast<std::size_t>(p)].flits.push_back(f);
            }
            id++;
        }
    }

    Cycle t = 0;
    for (auto _ : state) {
        router.tick(t);
        for (int p = kCluster; p < ports; p++) {
            Feeder &fd = feeders[static_cast<std::size_t>(p)];
            const Flit &f = fd.flits[fd.next];
            int vc = f.vc;
            if (ins[static_cast<std::size_t>(p)]->canAccept(t) &&
                fd.sent[vc] - probe.returned[p][vc] < kVcDepth) {
                ins[static_cast<std::size_t>(p)]->accept(t, f);
                fd.sent[vc]++;
                fd.next = (fd.next + 1) % fd.flits.size();
            }
        }
        for (int q = 0; q < ports; q++) {
            auto &out = outs[static_cast<std::size_t>(q)];
            while (out->hasArrival(t)) {
                Flit f = out->popArrival(t);
                router.returnCredit(q, f.vc, t);
            }
        }
        t++;
    }
}
BENCHMARK(BM_LoadedRouterTick);

// One delivery through a BoundaryChannel over a 4-cycle window,
// roughly a channel's duty cycle in the loaded fig7 runs. The source
// router's walk stages a flit (listing the channel), the post-pass
// publishes it (an index flip and the destination's wake), the
// destination drains it and returns a credit, and the next post-pass
// forwards the credit upstream. The other two cycles of the window
// cost nothing: a channel nobody staged into is never visited.
constexpr Cycle kDeliveryWindow = 4; // cycles per delivery

struct NullCreditSink final : CreditSink
{
    std::uint64_t count = 0;
    void returnCredit(int, int, Cycle) override { count++; }
};

struct NullTicking final : Ticking
{
    void tick(Cycle) override {}
};

void
BM_BoundaryDelivery(benchmark::State &state)
{
    BitrateLevelTable levels = BitrateLevelTable::linear(5.0, 10.0, 6);
    LinkPowerLedger ledger(1);
    OpticalLink link("bnd", LinkKind::kInterRouter, levels,
                     OpticalLink::Params{}, ledger);
    NullCreditSink upstream;
    NullTicking dst;
    BoundaryChannel::PublishList list;
    BoundaryChannel chan(&link, &upstream, 0, &dst, &list, &list);
    auto publish = [&list](Cycle now) {
        for (BoundaryChannel *c : list)
            c->publish(now);
        list.clear();
    };
    Flit f;
    f.flags = Flit::kHeadFlag | Flit::kTailFlag;
    Cycle now = 0;
    for (auto _ : state) {
        chan.stageArrival(f); // walk at t
        publish(now);         // post-pass at t
        while (chan.hasReadyArrival()) {
            const Flit &got = chan.popReadyArrival(); // drain at t+1
            chan.returnCredit(0, got.vc, now + 1);
        }
        publish(now + 1); // post-pass at t+1
        now += kDeliveryWindow;
        benchmark::DoNotOptimize(upstream.count);
    }
}
BENCHMARK(BM_BoundaryDelivery);

// One epoch's accounting pass through the LinkPowerLedger's flat
// columns: a 16x16x8 fabric (~5k links) with leakage + thermal on, so
// the pass also folds leakage and attributes energy per VC, after
// enough simulated history that the link population mixes levels and
// in-flight transitions. One shard, so no idle worker threads share the
// machine with the timed pass.
void
BM_PowerAccountingLedger(benchmark::State &state)
{
    SystemConfig cfg;
    cfg.meshX = 16;
    cfg.meshY = 16;
    cfg.shards = 1;
    cfg.thermal.enabled = true;
    PoeSystem sys(cfg);
    sys.setTraffic(makeTraffic(TrafficSpec::uniform(2.0, 4, 3), cfg));
    sys.run(3000);
    Network &net = sys.network();
    Cycle now = sys.now();
    for (auto _ : state) {
        benchmark::DoNotOptimize(makePowerReport(net, now));
        benchmark::DoNotOptimize(net.totalPowerIntegralMwCycles(now));
    }
}
BENCHMARK(BM_PowerAccountingLedger)->Unit(benchmark::kMicrosecond);

} // namespace

#ifndef OENET_BUILD_TYPE
#define OENET_BUILD_TYPE "unknown"
#endif

int
main(int argc, char **argv)
{
    // Stamp the simulator's own build type into the JSON context so
    // perf_compare.py can refuse baselines recorded from Debug builds
    // (the library_build_type field only describes libbenchmark).
    benchmark::AddCustomContext("oenet_build_type", OENET_BUILD_TYPE);
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
