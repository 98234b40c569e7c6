/**
 * @file
 * §5.6.1 in action: Killi on a *write-back* GPU L2. Dirty lines are
 * the only copy of their data, so Killi grades their protection by
 * DFH — SECDED checkbits for dirty b'00 lines, DECTED (reusing the
 * freed parity bits, zero extra storage) for dirty b'10 lines. The
 * example contrasts write-through and write-back on a store-heavy
 * workload: memory write traffic collapses, ECC-cache contention
 * rises, and the oracle confirms no dirty data is ever lost at the
 * operating voltage.
 *
 *   $ ./writeback_killi [workload=stream] [voltage=0.625] [ratio=64]
 */

#include <iostream>
#include <memory>

#include "common/options.hh"
#include "common/table.hh"
#include "fault/fault_map.hh"
#include "fault/fault_model.hh"
#include "fault/scenario_spec.hh"
#include "gpu/gpu_system.hh"
#include "killi/killi.hh"

using namespace killi;

int
main(int argc, char **argv)
{
    Options opts("writeback_killi",
                 "Killi on a write-back L2 vs the paper's "
                 "write-through design");
    const auto &wlName =
        opts.add("workload", "lulesh", "built-in workload name");
    const auto &voltage =
        opts.add<double>("voltage", 0.625,
                         "normalized supply voltage (V/VDD)")
            .range(0.5, 1.0);
    const auto &ratio =
        opts.add<std::uint64_t>("ratio", 64,
                                "ECC cache ratio (lines per entry)")
            .choices({16, 32, 64, 128, 256});
    opts.parse(argc, argv);

    const auto wl = makeWorkload(wlName, 0.5);

    TextTable table;
    table.header({"configuration", "cycles", "DRAM writes",
                  "ECC drops", "dirty losses", "SDC"});

    const auto run = [&](const char *label, WritePolicy policy,
                         bool invertedWrite) {
        GpuParams gp;
        gp.l2.writePolicy = policy;
        ScenarioSpec spec;
        spec.seed = 11;
        spec.voltage = voltage;
        const std::unique_ptr<FaultModel> model =
            FaultModel::fromScenario(spec);
        const std::unique_ptr<FaultMap> faultsPtr =
            model->buildMap(gp.l2Geom.numLines(), 720);
        FaultMap &faults = *faultsPtr;

        KilliParams kp;
        kp.ratio = static_cast<std::size_t>(ratio.value());
        kp.writebackMode = policy == WritePolicy::WriteBack;
        kp.invertedWriteCheck = invertedWrite;
        KilliProtection killi(faults, kp);
        GpuSystem sys(gp, killi, *wl, &faults);
        const RunResult r = sys.run(/*warmupPasses=*/1);

        const std::uint64_t losses = sys.l2().stats().wbDataLoss +
                                     sys.l2().stats().dirtyErrorLoss;
        table.row({label, std::to_string(r.cycles),
                   std::to_string(r.dramWrites),
                   std::to_string(killi.stats().eccDrops),
                   std::to_string(losses), std::to_string(r.sdc)});
    };

    std::cout << "Killi(1:" << ratio.value() << ") on '"
              << wlName.value() << "' at " << voltage.value()
              << "xVDD:\n\n";
    run("write-through (paper 2.4)", WritePolicy::WriteThrough, false);
    run("write-back (paper 5.6.1)", WritePolicy::WriteBack, false);
    run("write-back + inverted-write", WritePolicy::WriteBack, true);
    table.print(std::cout);

    std::cout << "\nWrite-back coalesces store traffic (DRAM writes "
                 "column) at the price of extra\nECC-cache pressure: "
                 "every dirty line needs checkbits, even fault-free "
                 "b'00 ones.\nAny 'dirty losses' are the 5.6.2 "
                 "masked-fault window surfacing as write-back\nloss "
                 "instead of silent corruption; the inverted-write "
                 "mitigation (third row)\ncloses that window "
                 "entirely.\n";
    return 0;
}
