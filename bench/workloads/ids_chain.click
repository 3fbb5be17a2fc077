// ids_chain — the benchmark's copy of examples/scenarios/ids_chain.click
// (the IDS detector cascade run to completion on two replicas, with an
// FW neighbour), the second scenario of smoke.sweep. {{SIG_SEED}}
// derives from the harness's -seed and selects the signature set both
// the source injects and the classifier compiles.
scenario :: Scenario(NAME ids_chain, MIN_CORES_PER_SOCKET 2);

graph IDS {
    src  :: FromDevice(SIZE 512, FLOWS 4096, SIG_HIT 0.06, SIG_COUNT 16, SIG_SEED {{SIG_SEED}},
                       LOW_ENTROPY 0.5, LOW_ENTROPY_BITS 2);
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
}

ids :: Flow(GRAPH IDS, WORKERS 2, PACKET_SIZE 512);
fw :: Flow(TYPE FW, WORKERS 1);
