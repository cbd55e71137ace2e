"""Executable scheduling-spec conformance for the Section 4 catalogue.

The repo's differential suites prove backends agree with *each other*;
this package proves the algorithms agree with the *scheduling theory*
they implement.  Three layers:

* :mod:`repro.conformance.oracle` — fluid reference models: an
  event-driven GPS (Generalized Processor Sharing) integrator
  producing per-packet ideal finish times, and a conservative
  token-bucket level reconstruction.
* :mod:`repro.conformance.checkers` — invariant checkers (work
  conservation, per-flow FIFO, GPS-relative delay bounds, fairness
  envelopes, token-bucket conformance, priority-inversion detection,
  idle legality, TDMA slot legality) consuming a Tracer event stream
  and returning structured :class:`~repro.conformance.checkers.Violation`
  records.
* :mod:`repro.conformance.metamorphic` — semantics-preserving scenario
  transforms (rate/size scaling, flow permutation, time translation,
  backend substitution) asserting verdicts are preserved.

``python -m repro.conformance`` exposes ``check | sweep | report``;
the applicable checker set per algorithm comes from the
:class:`~repro.sched.spec.AlgorithmSpec` attached to each registry
entry.
"""

from repro.conformance.checkers import (CHECKERS, ConformanceRun,
                                        Violation, run_checker)
from repro.conformance.metamorphic import (TRANSFORMS, apply_transform,
                                           metamorphic_verdicts)
from repro.conformance.oracle import (GpsResult, gps_finish_times,
                                      token_bucket_violations)
from repro.conformance.runner import (CheckOutcome, ConformanceReport,
                                      check_algorithm, check_trace,
                                      run_scenario, sweep_registry)
from repro.conformance.scenarios import (SCENARIOS, FlowSpec, Scenario,
                                         make_scenario)

__all__ = [
    "CHECKERS",
    "CheckOutcome",
    "ConformanceReport",
    "ConformanceRun",
    "FlowSpec",
    "GpsResult",
    "SCENARIOS",
    "Scenario",
    "TRANSFORMS",
    "Violation",
    "apply_transform",
    "check_algorithm",
    "check_trace",
    "gps_finish_times",
    "make_scenario",
    "metamorphic_verdicts",
    "run_checker",
    "run_scenario",
    "sweep_registry",
    "token_bucket_violations",
]
