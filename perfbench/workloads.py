"""The benchmark's workloads: one run configuration and corpus shape each.

The seed given on the command line becomes both the corpus seed and the
run's master seed, so one seed fixes every input. Rounds are sized so that
one repetition (published run, FedAvg runs, audit) takes a few seconds on a
2-vCPU machine and a run holds several repetitions. One FedAvg run takes
only 0.1-0.2 s, so `fedavg_runs` gives it about 1.5-2 s of each repetition
and 50-70 samples a run. The 4000-sample test
sets and the reference's longer warm start keep final accuracy within a
few percent across seeds; with 10 warm-start steps the reference model is
still in early training after 6 rounds and its accuracy varies by 15%.
"""

WORKLOADS = {
    # The paper's setting: mixed cost, ECDSA about half of it, plus PRG,
    # masking kernels, SHA-256 and record encoding.
    "reference": {
        "participants": 20,
        "rounds": 6,
        "hidden": 0,
        "pretrain_steps": 100,
        "side": 28,
        "n_train": 8400,
        "n_test": 4000,
        "malicious": ["3:label_flip", "8:label_flip", "13:label_flip", "18:label_flip"],
        "clipping": False,
        "fedavg_runs": 10,
    },
    # Many participants, small model: ECDSA sign, verify and per-key tables
    # dominate; vector kernels, encoding and ledger I/O are a few percent.
    "many-small": {
        "participants": 48,
        "rounds": 6,
        "hidden": 0,
        "pretrain_steps": 10,
        "side": 10,
        "n_train": 9800,
        "n_test": 4000,
        "malicious": [f"{i}:label_flip" for i in (2, 7, 12, 17, 22, 27, 32, 37, 42)],
        "clipping": False,
        "fedavg_runs": 12,
    },
    # Few participants, wide MLP: vector kernels, PRG, encoding, SHA-256,
    # ledger I/O and the MLP gradient dominate, with few signatures. Runs
    # the clipping branch of aggregation and audit.
    "wide-mlp": {
        "participants": 8,
        "rounds": 4,
        "hidden": 64,
        "pretrain_steps": 10,
        "side": 28,
        "n_train": 4500,
        "n_test": 4000,
        "malicious": ["2:scale_amplify:8", "5:label_flip"],
        "clipping": True,
        "fedavg_runs": 12,
    },
}
