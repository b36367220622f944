"""Deterministic KDD99-format traffic generator.

Produces labeled 42-field records with class-conditional feature
signatures modeled on the well-known behavior of the KDD99 attack types
(smurf's fixed-size icmp floods, neptune's half-open S0 storms, sweep
scans, password guessing, privilege-escalation shell sessions). The
corpus is a stand-in for environments where the public dataset file is
not available: same wire format, same class structure, dos-dominant mix,
and enough overlap between classes that a classifier is genuinely tested.
"""

from functools import cache

import numpy as np

from .schema import N_FEATURES, default_schema

# (attack name, weight) -- dos-heavy like the public 10% file
_MIX = [
    ("normal", 0.235),
    ("smurf", 0.470),
    ("neptune", 0.240),
    ("back", 0.016),
    ("teardrop", 0.008),
    ("pod", 0.004),
    ("ipsweep", 0.006),
    ("portsweep", 0.004),
    ("satan", 0.003),
    ("nmap", 0.001),
    ("guess_passwd", 0.003),
    ("warezclient", 0.006),
    ("ftp_write", 0.001),
    ("imap", 0.001),
    ("buffer_overflow", 0.0012),
    ("loadmodule", 0.0004),
    ("rootkit", 0.0004),
]

@cache
def _names() -> tuple:
    """The feature names in field order, read once from the default schema."""
    return tuple(default_schema().names)

_INT_FIELDS = {
    "duration", "src_bytes", "dst_bytes", "land", "wrong_fragment", "urgent",
    "hot", "num_failed_logins", "logged_in", "num_compromised", "root_shell",
    "su_attempted", "num_root", "num_file_creations", "num_shells",
    "num_access_files", "num_outbound_cmds", "is_hot_login", "is_guest_login",
    "count", "srv_count", "dst_host_count", "dst_host_srv_count",
}


def _blank():
    return {name: 0.0 for name in _names()}


def _rate(rng, center, spread):
    return float(np.clip(rng.normal(center, spread), 0.0, 1.0))


def _normal_record(rng, f):
    f["protocol_type"] = "tcp" if rng.random() < 0.8 else "udp"
    if f["protocol_type"] == "tcp":
        f["service"] = rng.choice(["http", "smtp", "ftp", "telnet"],
                                  p=[0.70, 0.15, 0.10, 0.05])
        f["flag"] = "SF"
        f["logged_in"] = 1
    else:
        f["service"] = rng.choice(["domain_u", "ntp_u"], p=[0.8, 0.2])
        f["flag"] = "SF"
    f["duration"] = int(rng.exponential(2.0)) if rng.random() < 0.3 else 0
    f["src_bytes"] = int(rng.lognormal(5.5, 1.0))
    f["dst_bytes"] = int(rng.lognormal(6.5, 1.5))
    f["count"] = int(rng.integers(1, 12))
    f["srv_count"] = max(1, int(f["count"] * rng.uniform(0.5, 1.0)))
    f["same_srv_rate"] = _rate(rng, 1.0, 0.05)
    f["diff_srv_rate"] = _rate(rng, 0.03, 0.04)
    f["dst_host_count"] = int(rng.integers(1, 256))
    f["dst_host_srv_count"] = int(rng.integers(1, 256))
    f["dst_host_same_srv_rate"] = _rate(rng, 0.9, 0.15)
    f["dst_host_same_src_port_rate"] = _rate(rng, 0.1, 0.15)
    f["serror_rate"] = _rate(rng, 0.0, 0.02)
    f["rerror_rate"] = _rate(rng, 0.0, 0.02)


def _smurf_record(rng, f):
    f["protocol_type"] = "icmp"
    f["service"] = "ecr_i"
    f["flag"] = "SF"
    f["src_bytes"] = int(rng.choice([520, 1032])) if rng.random() < 0.97 else int(rng.integers(100, 1500))
    f["dst_bytes"] = 0
    f["count"] = int(rng.integers(100, 512))
    f["srv_count"] = f["count"]
    f["same_srv_rate"] = 1.0
    f["dst_host_count"] = 255
    f["dst_host_srv_count"] = 255
    f["dst_host_same_srv_rate"] = 1.0
    f["dst_host_same_src_port_rate"] = _rate(rng, 1.0, 0.05)


def _neptune_record(rng, f):
    f["protocol_type"] = "tcp"
    f["service"] = rng.choice(["private", "telnet", "ftp", "finger", "http"],
                              p=[0.75, 0.08, 0.07, 0.05, 0.05])
    f["flag"] = "S0" if rng.random() < 0.95 else "REJ"
    f["src_bytes"] = 0
    f["dst_bytes"] = 0
    f["count"] = int(rng.integers(50, 300))
    f["srv_count"] = max(1, int(f["count"] * rng.uniform(0.02, 0.3)))
    err = _rate(rng, 1.0, 0.08)
    f["serror_rate"] = err
    f["srv_serror_rate"] = _rate(rng, err, 0.05)
    f["same_srv_rate"] = _rate(rng, 0.05, 0.05)
    f["diff_srv_rate"] = _rate(rng, 0.07, 0.05)
    f["dst_host_count"] = 255
    f["dst_host_srv_count"] = int(rng.integers(1, 30))
    f["dst_host_serror_rate"] = _rate(rng, err, 0.05)
    f["dst_host_srv_serror_rate"] = _rate(rng, err, 0.05)


def _back_record(rng, f):
    f["protocol_type"] = "tcp"
    f["service"] = "http"
    f["flag"] = "SF"
    f["src_bytes"] = int(rng.normal(54000, 2000))
    f["dst_bytes"] = int(rng.lognormal(8.0, 0.5))
    f["logged_in"] = 1
    f["hot"] = int(rng.integers(0, 3))
    f["count"] = int(rng.integers(1, 10))
    f["srv_count"] = f["count"]
    f["same_srv_rate"] = 1.0
    f["dst_host_count"] = int(rng.integers(1, 256))
    f["dst_host_srv_count"] = int(rng.integers(100, 256))
    f["dst_host_same_srv_rate"] = 1.0


def _teardrop_record(rng, f):
    f["protocol_type"] = "udp"
    f["service"] = "private"
    f["flag"] = "SF"
    f["src_bytes"] = 28
    f["wrong_fragment"] = int(rng.choice([1, 3]))
    f["count"] = int(rng.integers(4, 200))
    f["srv_count"] = f["count"]
    f["same_srv_rate"] = 1.0
    f["dst_host_count"] = int(rng.integers(1, 256))


def _pod_record(rng, f):
    f["protocol_type"] = "icmp"
    f["service"] = "ecr_i"
    f["flag"] = "SF"
    f["src_bytes"] = int(rng.integers(564, 1480))
    f["wrong_fragment"] = 1
    f["count"] = int(rng.integers(1, 30))
    f["srv_count"] = f["count"]
    f["same_srv_rate"] = 1.0
    f["dst_host_count"] = int(rng.integers(1, 256))


def _ipsweep_record(rng, f):
    f["protocol_type"] = "icmp" if rng.random() < 0.8 else "tcp"
    f["service"] = "eco_i" if f["protocol_type"] == "icmp" else "http"
    f["flag"] = "SF"
    f["src_bytes"] = int(rng.choice([8, 18, 20]))
    f["dst_bytes"] = 0
    f["count"] = int(rng.integers(1, 6))
    f["srv_count"] = int(rng.integers(1, 50))
    f["srv_diff_host_rate"] = _rate(rng, 0.7, 0.2)
    f["dst_host_count"] = int(rng.integers(1, 60))
    f["dst_host_srv_count"] = int(rng.integers(1, 256))
    f["dst_host_srv_diff_host_rate"] = _rate(rng, 0.7, 0.2)


def _portsweep_record(rng, f):
    f["protocol_type"] = "tcp"
    f["service"] = "private"
    f["flag"] = rng.choice(["REJ", "RSTR", "S0", "SF"], p=[0.4, 0.3, 0.2, 0.1])
    f["duration"] = int(rng.exponential(10)) if rng.random() < 0.3 else 0
    f["src_bytes"] = 0 if rng.random() < 0.8 else int(rng.integers(1, 100))
    f["count"] = int(rng.integers(1, 20))
    f["srv_count"] = int(rng.integers(1, 10))
    rej = _rate(rng, 0.7, 0.2)
    f["rerror_rate"] = rej
    f["srv_rerror_rate"] = _rate(rng, rej, 0.1)
    f["diff_srv_rate"] = _rate(rng, 0.8, 0.2)
    f["same_srv_rate"] = _rate(rng, 0.1, 0.1)
    f["dst_host_count"] = 255
    f["dst_host_srv_count"] = int(rng.integers(1, 30))
    f["dst_host_diff_srv_rate"] = _rate(rng, 0.8, 0.2)
    f["dst_host_rerror_rate"] = _rate(rng, rej, 0.1)


def _satan_record(rng, f):
    _portsweep_record(rng, f)
    f["service"] = rng.choice(["private", "other", "finger", "telnet"],
                              p=[0.5, 0.2, 0.2, 0.1])
    f["diff_srv_rate"] = _rate(rng, 0.9, 0.1)
    f["dst_host_diff_srv_rate"] = _rate(rng, 0.9, 0.1)


def _nmap_record(rng, f):
    _ipsweep_record(rng, f)
    f["protocol_type"] = rng.choice(["icmp", "tcp", "udp"], p=[0.5, 0.3, 0.2])
    f["service"] = "eco_i" if f["protocol_type"] == "icmp" else "private"
    f["dst_host_same_src_port_rate"] = _rate(rng, 0.9, 0.1)


def _guess_passwd_record(rng, f):
    f["protocol_type"] = "tcp"
    f["service"] = rng.choice(["telnet", "pop_3", "ftp"], p=[0.6, 0.2, 0.2])
    f["flag"] = rng.choice(["SF", "RSTO"], p=[0.8, 0.2])
    f["duration"] = int(rng.integers(1, 8))
    f["src_bytes"] = int(rng.normal(125, 20))
    f["dst_bytes"] = int(rng.normal(220, 40))
    f["num_failed_logins"] = int(rng.integers(1, 6))
    f["count"] = 1
    f["srv_count"] = 1
    f["same_srv_rate"] = 1.0
    f["dst_host_count"] = int(rng.integers(1, 256))
    f["dst_host_same_srv_rate"] = _rate(rng, 0.9, 0.1)


def _warezclient_record(rng, f):
    f["protocol_type"] = "tcp"
    f["service"] = rng.choice(["ftp", "ftp_data"], p=[0.3, 0.7])
    f["flag"] = "SF"
    f["duration"] = int(rng.exponential(300))
    f["src_bytes"] = int(rng.lognormal(7.0, 2.0))
    f["dst_bytes"] = int(rng.lognormal(9.0, 2.0))
    f["logged_in"] = 1
    f["is_guest_login"] = 1
    f["hot"] = int(rng.integers(0, 3))
    f["count"] = int(rng.integers(1, 6))
    f["srv_count"] = f["count"]
    f["same_srv_rate"] = 1.0
    f["dst_host_count"] = int(rng.integers(1, 256))


def _ftp_write_record(rng, f):
    f["protocol_type"] = "tcp"
    f["service"] = rng.choice(["ftp", "ftp_data", "login"], p=[0.5, 0.3, 0.2])
    f["flag"] = "SF"
    f["duration"] = int(rng.integers(1, 130))
    f["src_bytes"] = int(rng.integers(100, 700))
    f["dst_bytes"] = int(rng.integers(200, 2000))
    f["logged_in"] = 1
    f["num_file_creations"] = 1
    f["num_access_files"] = int(rng.integers(0, 2))
    f["is_guest_login"] = int(rng.random() < 0.5)
    f["count"] = 1
    f["srv_count"] = 1
    f["same_srv_rate"] = 1.0
    f["dst_host_count"] = int(rng.integers(1, 60))


def _imap_record(rng, f):
    f["protocol_type"] = "tcp"
    f["service"] = "imap4"
    f["flag"] = rng.choice(["SF", "RSTO", "S1"], p=[0.6, 0.2, 0.2])
    f["duration"] = int(rng.integers(1, 60))
    f["src_bytes"] = int(rng.integers(0, 1500))
    f["dst_bytes"] = int(rng.integers(0, 400))
    f["count"] = 1
    f["srv_count"] = 1
    f["same_srv_rate"] = 1.0
    f["dst_host_count"] = int(rng.integers(1, 256))


def _bo_record(rng, f):
    f["protocol_type"] = "tcp"
    f["service"] = rng.choice(["telnet", "ftp_data"], p=[0.8, 0.2])
    f["flag"] = "SF"
    f["duration"] = int(rng.integers(60, 1200))
    f["src_bytes"] = int(rng.lognormal(7.3, 0.6))
    f["dst_bytes"] = int(rng.lognormal(8.2, 0.8))
    f["logged_in"] = 1
    f["root_shell"] = int(rng.random() < 0.7)
    f["num_compromised"] = int(rng.integers(0, 3))
    f["num_root"] = int(rng.integers(0, 6))
    f["num_file_creations"] = int(rng.integers(0, 4))
    f["num_shells"] = int(rng.random() < 0.4)
    f["hot"] = int(rng.integers(0, 4))
    f["count"] = 1
    f["srv_count"] = 1
    f["same_srv_rate"] = 1.0
    f["dst_host_count"] = int(rng.integers(1, 30))


def _loadmodule_record(rng, f):
    _bo_record(rng, f)
    f["duration"] = int(rng.integers(30, 400))
    f["num_file_creations"] = int(rng.integers(1, 5))


def _rootkit_record(rng, f):
    _bo_record(rng, f)
    f["num_root"] = int(rng.integers(1, 10))
    f["root_shell"] = int(rng.random() < 0.5)


_MAKERS = {
    "normal": _normal_record,
    "smurf": _smurf_record,
    "neptune": _neptune_record,
    "back": _back_record,
    "teardrop": _teardrop_record,
    "pod": _pod_record,
    "ipsweep": _ipsweep_record,
    "portsweep": _portsweep_record,
    "satan": _satan_record,
    "nmap": _nmap_record,
    "guess_passwd": _guess_passwd_record,
    "warezclient": _warezclient_record,
    "ftp_write": _ftp_write_record,
    "imap": _imap_record,
    "buffer_overflow": _bo_record,
    "loadmodule": _loadmodule_record,
    "rootkit": _rootkit_record,
}


def make_record(rng, attack: str) -> str:
    """One labeled KDD99-format line for the given attack name."""
    f = _blank()
    _MAKERS[attack](rng, f)
    # a slice of ambiguous traffic keeps the problem honest
    if attack != "normal" and rng.random() < 0.01:
        g = _blank()
        _normal_record(rng, g)
        for key in ("count", "srv_count", "serror_rate", "srv_serror_rate",
                    "rerror_rate", "same_srv_rate", "diff_srv_rate"):
            f[key] = g[key]
    fields = []
    for name in _names():
        v = f[name]
        if isinstance(v, str):
            fields.append(v)
        elif name in _INT_FIELDS:
            fields.append(str(max(0, int(v))))
        else:
            fields.append(f"{float(v):.2f}")
    assert len(fields) == N_FEATURES
    return ",".join(fields) + f",{attack}."


def generate_lines(n: int, seed: int = 0):
    """Yield n deterministic labeled record lines."""
    rng = np.random.default_rng(seed)
    names = [name for name, _ in _MIX]
    weights = np.array([w for _, w in _MIX])
    weights = weights / weights.sum()
    picks = rng.choice(len(names), size=n, p=weights)
    for pick in picks:
        yield make_record(rng, names[pick])


def write_corpus(path, n: int, seed: int = 0) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for line in generate_lines(n, seed):
            fh.write(line + "\n")


def _main(argv=None):
    import argparse

    ap = argparse.ArgumentParser(
        description="generate a deterministic KDD99-format corpus")
    ap.add_argument("--n", type=int, default=10000)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    write_corpus(args.out, args.n, args.seed)
    print(f"wrote {args.n} records to {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(_main())
