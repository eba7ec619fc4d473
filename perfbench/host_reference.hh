/**
 * @file
 * A fixed reference kernel that measures the host's current speed.
 *
 * The benchmark's host is a shared VM whose speed for the simulator's
 * kind of code swings by up to 1.7x in episodes of seconds to minutes
 * (an idle or busy SMT sibling, neighbours' cache traffic).  A run
 * times this kernel between its repetitions and divides each
 * repetition's time by the kernel's time around it, so the swing
 * cancels.  The kernel uses no simulator code: a change under src/
 * never changes it, and a slower simulator still reads as slower.
 *
 * The kernel mixes the three kinds of work that track the simulator's
 * swings on that host (measured; see README.md, "Host time"): four
 * independent ALU chains (high ILP, the most sensitive to a busy SMT
 * sibling), sorting random keys (branch mispredictions) and hash-map
 * and tree churn (allocation and pointer chasing).  Its footprint is
 * about 0.2 MB, below every workload's, so it does not set the
 * process's peak RSS.
 */

#ifndef NUAT_PERFBENCH_HOST_REFERENCE_HH
#define NUAT_PERFBENCH_HOST_REFERENCE_HH

namespace nuat::perfbench {

/** The reference kernel's usual time on the host the benchmark was
 *  sized on (a 2.1 GHz Xeon vCPU): dividing by the measured time and
 *  multiplying by this turns a repetition's time into seconds at that
 *  usual speed. */
constexpr double kReferenceNominalSeconds = 0.1;

/** Runs the reference kernel once; returns its wall time [s]. */
double referenceSeconds();

} // namespace nuat::perfbench

#endif // NUAT_PERFBENCH_HOST_REFERENCE_HH
