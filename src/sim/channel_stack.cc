#include "channel_stack.hh"

#include "charge/cell_model.hh"
#include "charge/sense_amp_model.hh"
#include "common/logging.hh"
#include "core/nuat_scheduler.hh"
#include "sched/adaptive_scheduler.hh"
#include "sched/fcfs_scheduler.hh"
#include "sched/frfcfs_scheduler.hh"

namespace nuat {

std::unique_ptr<Scheduler>
makeSchedulerFor(const ExperimentConfig &cfg,
                 const TimingDerate &derate)
{
    switch (cfg.scheduler) {
      case SchedulerKind::kFcfs:
        return std::make_unique<FcfsScheduler>(PagePolicy::kOpen);
      case SchedulerKind::kFrFcfsOpen:
        return std::make_unique<FrFcfsScheduler>(PagePolicy::kOpen);
      case SchedulerKind::kFrFcfsClose:
        return std::make_unique<FrFcfsScheduler>(PagePolicy::kClose,
                                                 cfg.closeGrace);
      case SchedulerKind::kFrFcfsAdaptive:
        return std::make_unique<AdaptiveFrFcfsScheduler>(
            1024, 256, cfg.closeGrace);
      case SchedulerKind::kNuat: {
        NuatConfig nc = NuatConfig::fromDerate(derate, cfg.numPb);
        nc.weights = cfg.weights;
        nc.ppmEnabled = cfg.ppmEnabled;
        nc.graceClose = cfg.closeGrace;
        nc.starvationLimit = cfg.nuatStarvationLimit;
        nc.pbElementEnabled = cfg.pbElementEnabled;
        nc.boundaryElementEnabled = cfg.boundaryElementEnabled;
        nc.guardband = cfg.guardband;
        nc.guardband.enabled =
            cfg.faultsEnabled() && cfg.faultDegrade;
        return std::make_unique<NuatScheduler>(nc);
      }
    }
    nuat_panic("unhandled scheduler kind");
}

ChannelStack::ChannelStack(const ExperimentConfig &exp, unsigned channel,
                           const FaultProfile *faults)
{
    const CellModel cell(exp.charge);
    const SenseAmpModel sense_amp(cell);
    NominalTiming nominal;
    nominal.trcd = exp.timing.tRCD;
    nominal.tras = exp.timing.tRAS;
    nominal.trp = exp.timing.tRP;
    derate_ =
        std::make_unique<TimingDerate>(sense_amp, nominal, exp.memClock());

    DramGeometry chan_geom = exp.geometry;
    chan_geom.channels = 1;
    dev_ = std::make_unique<DramDevice>(chan_geom, exp.timing, *derate_,
                                        exp.memClock());
    if (faults != nullptr) {
        // Channel-salted seed so multi-channel fault worlds differ but
        // stay a pure function of the experiment seed.
        const RefreshEngine &re = dev_->refresh(RankId{0});
        faults_ = std::make_unique<FaultModel>(
            *faults, exp.seed + 0x9e3779b97f4a7c15ULL * (channel + 1),
            chan_geom.ranks, chan_geom.rows, re.rowsPerRef(),
            re.interval(), exp.memClock());
        dev_->attachFaultModel(faults_.get());
    }

    ControllerConfig ctrl_cfg = exp.controller;
    ctrl_cfg.channels = exp.geometry.channels;
    ctrl_ = std::make_unique<MemoryController>(
        *dev_, makeSchedulerFor(exp, *derate_), ctrl_cfg);

    // The shadow auditor re-checks every issued command against its
    // own protocol model; it never perturbs the run.
    if (exp.audit) {
        AuditorConfig acfg;
        acfg.geometry = chan_geom;
        acfg.timing = exp.timing;
        acfg.clock = exp.memClock();
        acfg.derate = derate_.get();
        acfg.maxMessages = exp.auditMaxMessages;
        acfg.faults = faults_.get();
        auditor_ = std::make_unique<ProtocolAuditor>(acfg);
        dev_->addObserver(auditor_.get());
    }
}

} // namespace nuat
