// mixed — the benchmark's own copy of examples/scenarios/mixed.click, so
// edits to examples/ never change what the benchmark measures. Six
// saturating run-to-completion flows fill one socket; their working sets
// exceed the quick-scale 1 MiB L3, so every worker contends for the one
// socket lock and evicts its neighbours' lines. Used by
// runtime_contended (quick scale), runtime_fullscale (full scale) and,
// through smoke.sweep, sweep_smoke. The builtin flow types take their
// seeds from core.SeedFor, which has no public knob: this file is the
// same at every -seed.
scenario :: Scenario(NAME mixed, MIN_CORES_PER_SOCKET 4, FIT 6);

ipfwd :: Flow(TYPE IP, WORKERS 2);
mon   :: Flow(TYPE MON, WORKERS 1);
vpn   :: Flow(TYPE VPN, WORKERS 1);
fw    :: Flow(TYPE FW, WORKERS 1);
mon2  :: Flow(TYPE MON, WORKERS 1);
