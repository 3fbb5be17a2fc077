// profile_mix — engine_profile's flow list: the five realistic flow
// types the workload profiles, plus a second MON so the check mix
// {IP,MON,FW,RE,VPN,MON} fills one socket. The harness profiles the
// distinct types with runtime.ProfileFlows and co-runs the whole list on
// the deterministic engine for the predicted-versus-measured check; the
// per-layer isolations read their packet mix from the same list.
// Seed-independent, like mixed.click.
scenario :: Scenario(NAME profile_mix, MIN_CORES_PER_SOCKET 6, FIT 6);

ip   :: Flow(TYPE IP, WORKERS 1);
mon  :: Flow(TYPE MON, WORKERS 1);
fw   :: Flow(TYPE FW, WORKERS 1);
re   :: Flow(TYPE RE, WORKERS 1);
vpn  :: Flow(TYPE VPN, WORKERS 1);
mon2 :: Flow(TYPE MON, WORKERS 1);
