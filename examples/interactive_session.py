"""Interactive inspection session: step a live run, poke it, replay it.

An :class:`repro.obs.InteractiveContext` constructs any registered
scenario and hands you the simulator one event at a time, with passive
inspectors over every layer (queues, fluid shares, monitor estimates,
controller phase, usage) and deterministic interventions (fault
injection, config pinning, resource perturbation).  Every intervention
is recorded; ``replay`` reproduces the intervened run bit-for-bit from
the script alone.

This walkthrough drives the paper's Figure 5 session:

1. run until the monitor's first constraint violation forces a switch;
2. inspect the monitor estimates and candidate configurations behind it;
3. perturb the client's CPU share and inject a server crash;
4. finish, then replay the recorded script and verify bit-identity.

Run:  python examples/interactive_session.py
Deterministic: same output every run (also exercised by the test suite).
"""

import json

from repro.obs import InteractiveContext, replay

# -- 1. Run to the first adaptation ----------------------------------------

ctx = InteractiveContext("fig5sess", seed=0)
ctx.run_until(lambda c: len(c.switches()) >= 1)
switch = ctx.switches()[0]
print(
    f"t={ctx.now:.2f}s: first switch {switch['from']} -> {switch['to']} "
    f"(at t={switch['t']:.2f}s)"
)

# -- 2. Inspect the state that motivated it --------------------------------

monitor = ctx.inspect.monitor()
print(f"monitor estimates: {json.dumps(monitor['estimates'], sort_keys=True)}")
controller = ctx.inspect.controller()
print(
    f"controller phase={controller['phase']} "
    f"current={controller['current_config']} "
    f"candidates={len(controller['candidates'])}"
)
for name, share in sorted(ctx.inspect.shares().items()):
    print(f"  share {name}: {share}")

# -- 3. Intervene: starve the client, then crash the server ----------------

ctx.run_until(40.0)
ctx.perturb("client", cpu_share=0.3, net_bw=200e3)
print(f"t={ctx.now:.2f}s: pinched client to 30% CPU / 200 kb/s")

ctx.inject({"events": [
    {"kind": "crash", "host": "server", "at": 55.0, "until": 58.0},
]})
print(f"t={ctx.now:.2f}s: scheduled server crash at t=55s")

# -- 4. Finish, then replay the script bit-for-bit -------------------------

_fig, payload = ctx.finish()
print(f"run finished: total_time={payload['total_time']:.2f}s "
      f"switches={len(payload['switches'])}")

script = ctx.script()
print(f"intervention script: {script}")

twin = replay("fig5sess", 0, script)
_fig2, payload2 = twin.finish()
same = (
    json.dumps(payload2, sort_keys=True, default=str)
    == json.dumps(payload, sort_keys=True, default=str)
)
assert same, "replayed run must be bit-identical to the intervened original"
print("replay is bit-identical to the original intervened run")
print("interactive session OK")
