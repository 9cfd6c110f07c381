#include "obs/flight_recorder.h"

#include "sim/simulator.h"

namespace diknn {

void FlightRecorder::ScheduleTicks(Simulator* sim, double start,
                                   double end) {
  const double interval = options().interval;
  if (!(interval > 0.0) || start > end) return;
  // One self-rescheduling event: tick, then re-arm until the horizon.
  // Scheduling from inside the callback keeps at most one recorder event
  // pending, and the event body touches nothing the simulation reads.
  struct Chain {
    FlightRecorder* recorder;
    Simulator* sim;
    double interval;
    double end;

    void Arm(double at) {
      if (at > end) return;
      sim->ScheduleAt(at, [chain = *this, at]() mutable {
        chain.recorder->Tick(at, chain.interval);
        chain.Arm(at + chain.interval);
      });
    }
  };
  Chain{this, sim, interval, end}.Arm(start + interval);
}

}  // namespace diknn
