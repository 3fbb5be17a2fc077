// chains — runtime_chains: two staged service chains cut across the
// sockets plus a saturating firewall. The NATFW graph is
// nat_chain_staged.click's, the IDS graph ids_chain_staged.click's
// (512 B payload scan); both are paced at 0.8 of their solo rate under a
// p99 latency objective, so the run exercises what the contended mix
// bypasses: hand-off rings with staged batch ops, the paced dispatcher,
// latency histograms, idle-poll stalls, and (the harness turns them on)
// the metrics registry and 1-in-64 packet tracing. State is L1/L2
// resident, so the cache model is cheap here and per-packet element
// work dominates.
//
// {{SEED}} is the harness's -seed; {{SIG_SEED}} derives from it. They
// drive the graph sources' packet streams and the IDS signature set.
scenario :: Scenario(NAME chains, MIN_CORES_PER_SOCKET 3, MIN_SOCKETS 2, BATCH 32,
                     PLACE s0:0 s1:0 s0:1 s1:1 s0:2);

graph NATFW {
    src    :: FromDevice(SIZE 64, SEED {{SEED}});
    cls    :: IPClassifier(tcp, udp, -);
    nat    :: IPRewriter(EXTIP 198.51.100.1, CAPACITY 65536);
    fw     :: IPFilter(RULES 1000);
    tee    :: Tee;
    mirror :: Counter;
    src -> CheckIPHeader -> cls;
    cls[0] -> nat;
    cls[1] -> nat;
    cls[2] -> Discard;
    nat -> fw -> tee;
    tee[0] -> ToDevice;
    tee[1] -> mirror -> Discard;
    stage 1: fw;
}

graph IDS {
    src  :: FromDevice(SIZE 512, FLOWS 4096, SEED {{SEED}}, SIG_HIT 0.06, SIG_COUNT 16,
                       SIG_SEED {{SIG_SEED}}, LOW_ENTROPY 0.5, LOW_ENTROPY_BITS 2);
    chk  :: CheckIPHeader;
    sig  :: SignatureClassifier(SIG_SEED {{SIG_SEED}}, PATTERNS 16);
    ent  :: EntropyGate(THRESHOLD 6.5, WINDOW 512);
    bans :: BanTable(ENTRIES 16384);
    src -> chk -> sig;
    sig[0] -> ToDevice;
    sig[1] -> ent;
    ent[0] -> ToDevice;
    ent[1] -> bans;
    bans[0] -> ToDevice;
    bans[1] -> Discard;
    stage 1: bans;
}

natfw :: Flow(GRAPH NATFW, WORKERS 1, RATE_FRACTION 0.8, SLO_P99_US 500);
ids   :: Flow(GRAPH IDS, WORKERS 1, PACKET_SIZE 512, RATE_FRACTION 0.8, SLO_P99_US 800);
fw    :: Flow(TYPE FW, WORKERS 1);
