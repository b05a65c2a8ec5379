//===- perfbench/src/main.cpp - fpint-perfbench entry point ---------------===//
//
// Part of the fpint project (PLDI 1998 idle-FP-resources reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// fpint-perfbench --workload figures|sweep|serve --seed N --seconds S
///                 --trace 0|1 --serve-bin PATH --run-dir DIR
///                 --golden-dir DIR --trace-out FILE [--size tiny]
/// fpint-perfbench --sandbox-floor N   (the helper of a traced run)
///
/// Prints the metrics by name with their units, then one JSON result
/// line; exits 1 if any output was wrong. perfbench/run.py builds this
/// binary and supplies the paths.
///
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <thread>

using namespace perfbench;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: fpint-perfbench --workload figures|sweep|serve "
               "--seed N --seconds S --trace 0|1\n"
               "                       --serve-bin PATH --run-dir DIR "
               "--golden-dir DIR --trace-out FILE [--size tiny]\n");
  return 2;
}

} // namespace

int main(int argc, char **argv) {
  if (argc == 3 && std::string(argv[1]) == "--sandbox-floor")
    return sandboxFloorMain(static_cast<unsigned>(std::atoi(argv[2])));
  Options Opts;
  for (int I = 1; I + 1 < argc; I += 2) {
    const std::string Flag = argv[I], Val = argv[I + 1];
    if (Flag == "--workload")
      Opts.Workload = Val;
    else if (Flag == "--seed")
      Opts.Seed = std::strtoull(Val.c_str(), nullptr, 10);
    else if (Flag == "--seconds")
      Opts.Seconds = std::atof(Val.c_str());
    else if (Flag == "--trace")
      Opts.Trace = Val != "0";
    else if (Flag == "--size")
      Opts.Tiny = Val == "tiny";
    else if (Flag == "--serve-bin")
      Opts.ServeBin = Val;
    else if (Flag == "--run-dir")
      Opts.RunDir = Val;
    else if (Flag == "--golden-dir")
      Opts.GoldenDir = Val;
    else if (Flag == "--trace-out")
      Opts.TraceOut = Val;
    else
      return usage();
  }
  if (argc % 2 == 0 || Opts.Seconds <= 0 || Opts.RunDir.empty())
    return usage();
  // One load-generating process whose workers (client connections for
  // serve) take half the processors, at most four. The other half
  // absorbs the serving daemon and its sandbox children, and load from
  // outside: on a 4-vCPU VM, four workers doubled the run-to-run spread
  // of sweep compared with two.
  Opts.Threads = std::clamp(std::thread::hardware_concurrency() / 2, 1u, 4u);

  std::error_code Ec;
  std::filesystem::create_directories(Opts.RunDir, Ec);
  Report R;
  if (Opts.Workload == "figures")
    runFigures(Opts, R);
  else if (Opts.Workload == "sweep")
    runSweep(Opts, R);
  else if (Opts.Workload == "serve")
    runServe(Opts, R);
  else
    return usage();
  return R.finish(Opts);
}
