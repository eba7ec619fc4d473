/**
 * @file
 * One DRAM channel's simulation stack, built in one place so System
 * and the serve runtime cannot drift apart in how they wire a channel
 * (the `channel-stack` lint rule keeps it the only place).
 */

#ifndef NUAT_SIM_CHANNEL_STACK_HH
#define NUAT_SIM_CHANNEL_STACK_HH

#include <memory>

#include "charge/timing_derate.hh"
#include "dram/dram_device.hh"
#include "experiment_config.hh"
#include "fault/fault_model.hh"
#include "mem/memory_controller.hh"
#include "verify/protocol_auditor.hh"

namespace nuat {

/**
 * Build the scheduler @p cfg requests, using @p derate as the charge
 * model behind NUAT's PB table.  Schedulers hold per-channel state:
 * one instance per channel, never shared.
 */
std::unique_ptr<Scheduler>
makeSchedulerFor(const ExperimentConfig &cfg,
                 const TimingDerate &derate);

/**
 * Charge model -> device -> controller + scheduler, with the optional
 * fault world and shadow auditor.  Parts sit behind stable pointers,
 * so a stack may be moved; they are destroyed observers first
 * (auditor, controller, device, fault world, derate).  Read
 * callbacks, metrics and extra observers are the owner's to attach.
 */
class ChannelStack
{
  public:
    /**
     * @param exp     the experiment; geometry.channels counts the
     *                machine's channels
     * @param channel this channel's index (salts the fault seed)
     * @param faults  resolved fault profile, or null for none
     */
    ChannelStack(const ExperimentConfig &exp, unsigned channel,
                 const FaultProfile *faults);

    DramDevice &device() { return *dev_; }
    const DramDevice &device() const { return *dev_; }
    MemoryController &controller() { return *ctrl_; }
    const MemoryController &controller() const { return *ctrl_; }

    /** Null unless exp.audit. */
    const ProtocolAuditor *auditor() const { return auditor_.get(); }

    /** Null unless built with a fault profile. */
    const FaultModel *faultModel() const { return faults_.get(); }

  private:
    std::unique_ptr<TimingDerate> derate_;
    std::unique_ptr<FaultModel> faults_;
    std::unique_ptr<DramDevice> dev_;
    std::unique_ptr<MemoryController> ctrl_;
    std::unique_ptr<ProtocolAuditor> auditor_;
};

} // namespace nuat

#endif // NUAT_SIM_CHANNEL_STACK_HH
