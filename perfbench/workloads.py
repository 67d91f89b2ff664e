"""Seeded job generators for the benchmark workloads, and the code that runs one job.

Generators depend only on the seed (and, for port sources, on launchport's
renderer): the same seed always yields the same jobs.  Each job carries its
expected outcome from ``reference``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import launchport as lp
from launchport.errors import CapacityError
from launchport.synthesis import render_for_spec
from launchport.types import Launcher

from reference import (
    BAD_DS_CONFIG,
    CAPACITY_SUGGESTIONS,
    CLUSTER_WORDS,
    CLUSTERS,
    COMBOS,
    GLUE_ENTRY,
    GOLDEN_DESCRIPTION,
    GOLDEN_FIELDS,
    GPUS_PER_NODE,
    HF_ARGS,
    IPEX_ARGS,
    LAUNCHER_COMBO,
    PERLMUTTER_COMMAND,
    POLARIS_COMMAND,
    UNRESOLVABLE,
    XPU_ENTRY,
    Expected,
    Outcome,
    expected_faults,
)

GRID_JOBS = 2048
PROSE_PORT_JOBS = 768  # every third one is a port
DS_CONFIG = "ds_config.json"

ENTRIES = ("train.py", "main.py", "train_gpt2.py", "run_image_classification.py",
           "scripts/finetune.py")
ARGS = ("", "", "--epochs 3", "--lr 3e-4 --batch-size 64")
MODELS = ("ViT", "BERT", "a GPT model", "LLaMA")
OPENERS = ("I want to train", "Please set up a job to fine-tune", "Train")

# Phrasings from the phrasings.json vocabulary that fix each grid column.
COMBO_PHRASES = {
    "ddp": ("PyTorch DDP", "plain PyTorch data parallel", "PyTorch distributed data parallel",
            "data parallelism via torchrun"),
    "fsdp": ("PyTorch FSDP", "fully sharded data parallel", "FSDP"),
    "zero3": ("DeepSpeed ZeRO-3", "DeepSpeed", "the deepspeed launcher",
              "DeepSpeed ZeRO stage 3"),
    "acc-ddp": ("acc-ddp", "HF Accelerate", "Hugging Face Accelerate and DDP"),
}
NODE_NOUNS = ("node", "compute node", "server", "machine", "host")
PORT_PHRASES = ("master port {port}", "rendezvous port {port}", "on port {port}",
                "--master_port={port}", "--port {port}", "port: {port}")
ENTRY_PHRASES = ("my training file is {entry}", "training script is {entry}", "run {entry}",
                 "python {entry}", "execute {entry}", "--entry {entry}")
# Known extractor defect: "--entry scripts/x.py" is read as "s/x.py", because
# the "entry script" prose pattern matches across "--entry scripts/".  The
# flag form is therefore only written with bare file names.
BARE_NAME_ONLY = "--entry {entry}"
# Both name DeepSpeed, which the extractor needs before it reads a config path.
DS_PHRASES = ("--deepspeed_config {config}", "DeepSpeed config {config}")

_UNITS = ("one", "two", "three", "four", "five", "six", "seven", "eight", "nine")
_TEENS = ("ten", "eleven", "twelve", "thirteen", "fourteen", "fifteen", "sixteen",
          "seventeen", "eighteen", "nineteen")
_TENS = ("twenty", "thirty", "forty", "fifty", "sixty")


def number_word(n: int, sep: str = "-") -> str:
    """English words for 1..64, the range the extractor documents."""
    if n < 10:
        return _UNITS[n - 1]
    if n < 20:
        return _TEENS[n - 10]
    tens, unit = divmod(n, 10)
    word = _TENS[tens - 2]
    return word if unit == 0 else f"{word}{sep}{_UNITS[unit - 1]}"


def _count(rng: random.Random, n: int) -> str:
    if n <= 64 and rng.random() < 0.5:
        return number_word(n, rng.choice(("-", " ")))
    return str(n)


def _plural(word: str, n: int) -> str:
    return word if n == 1 else word + "s"


def topology_phrase(rng: random.Random, nodes: int, gpus: int) -> str:
    total = nodes * gpus
    n, g, t = _count(rng, nodes), _count(rng, gpus), _count(rng, total)
    noun = _plural(rng.choice(NODE_NOUNS), nodes)
    forms = [
        f"on {n} {noun} with {g} {_plural('GPU', gpus)} per node",
        f"{g} {_plural('GPU', gpus)} each on {n} {noun}",
        f"{t} {_plural('GPU', total)} across {n} {noun}",
        f"--nodes {nodes} --gpus-per-node {gpus}",
        f"{t} {_plural('GPU', total)} in total over {n} {noun}",
    ]
    if nodes == 1:
        forms.append(f"a single node with {t} {_plural('GPU', total)}")
    return rng.choice(forms)


def describe(rng: random.Random, cluster: str, combo: str, nodes: int, gpus: int,
             entry: str, port: int | None, args: str, ds_config: str | None) -> str:
    """A free-text job description built from the phrasing vocabulary."""
    parts = [
        f"{rng.choice(OPENERS)} {rng.choice(MODELS)} with {rng.choice(COMBO_PHRASES[combo])}",
        topology_phrase(rng, nodes, gpus),
        f"on {rng.choice(CLUSTER_WORDS[cluster])}",
    ]
    if port is not None:
        parts.append(rng.choice(PORT_PHRASES).format(port=port))
    phrases = ENTRY_PHRASES if "/" not in entry else [
        p for p in ENTRY_PHRASES if p != BARE_NAME_ONLY]
    parts.append(rng.choice(phrases).format(entry=entry))
    if ds_config is not None:
        parts.append(rng.choice(DS_PHRASES).format(config=ds_config))
    text = ", ".join(parts)
    if args:
        text += f" and my training arguments are {args}"
    return text


@dataclass(frozen=True)
class Job:
    index: int
    kind: str  # grid | prose | port | cli
    data: dict
    expect: Expected


class Draw:
    """Seeded choices, most of them dealt from shuffled decks.

    A deck holds every value once (or in fixed proportions); it is reshuffled
    when empty.  Every seed's pool therefore has the same mix of node counts,
    GPUs per node, entry scripts, arguments and injected faults, and only their
    pairing and order change.  The job mix sets the timings, so this keeps the
    seed out of them.
    """

    def __init__(self, rng: random.Random):
        self.rng = rng
        self._decks: dict = {}

    def deal(self, key, values):
        deck = self._decks.get(key)
        if not deck:
            deck = self._decks[key] = list(values)
            self.rng.shuffle(deck)
        return deck.pop()

    def share(self, key, share: float) -> bool:
        """True on ``share`` of the deals for ``key`` (in tenths)."""
        hits = round(share * 10)
        return self.deal(("share", key, hits), [True] * hits + [False] * (10 - hits))


def _injections(cluster: str, combo: str) -> list[dict]:
    """Field overrides that arm one clearable fault (the FAULT_CORPUS triggers)."""
    options = [{"train_args": HF_ARGS}]
    if combo == "zero3":
        options.append({"deepspeed_config": BAD_DS_CONFIG})
    if cluster == "aurora":
        options.append({"train_args": IPEX_ARGS})
    if cluster in ("stampede3", "aurora"):
        options.append({"entry_script": XPU_ENTRY})
    if cluster == "lonestar6":
        options.append({"entry_script": GLUE_ENTRY})
    return options


def _draw_job(draw: Draw, cluster: str, combo: str, max_nodes: int,
              inject_share: float, bad_config: bool = True) -> dict:
    fields = dict(
        cluster=cluster,
        combo=combo,
        nodes=draw.deal(("nodes", max_nodes), range(1, max_nodes + 1)),
        gpus_per_node=draw.deal(("gpus", cluster), range(1, GPUS_PER_NODE[cluster] + 1)),
        master_port=draw.rng.randint(20000, 40000),
        entry_script=draw.deal("entry", ENTRIES),
        train_args=draw.deal("args", ARGS),
        deepspeed_config=DS_CONFIG if combo == "zero3" else None,
    )
    if (cluster, combo) not in UNRESOLVABLE and draw.share("inject", inject_share):
        options = _injections(cluster, combo)
        if not bad_config:
            options = [o for o in options if "deepspeed_config" not in o]
        fields.update(draw.deal(("fault", cluster, combo, bad_config), options))
    return fields


def _outcome_kind(cluster: str, combo: str) -> str:
    return "unresolved" if (cluster, combo) in UNRESOLVABLE else "success"


def _faults(f: dict) -> tuple[str, ...]:
    if (f["cluster"], f["combo"]) in UNRESOLVABLE:
        return ()
    return expected_faults(f["cluster"], f["combo"], f["nodes"], f["entry_script"],
                           f["train_args"], f["deepspeed_config"])


def _job_spec(f: dict, profiles) -> lp.JobSpec:
    framework, strategy = COMBOS[f["combo"]]
    launcher = {
        "pytorch": profiles.resolve(f["cluster"]).default_launcher,
        "deepspeed": Launcher.DEEPSPEED,
        "accelerate": Launcher.ACCELERATE,
    }[framework]
    return lp.JobSpec(
        cluster=f["cluster"],
        framework=lp.Framework(framework),
        strategy=lp.Strategy(strategy),
        launcher=launcher,
        nodes=f["nodes"],
        gpus_per_node=f["gpus_per_node"],
        entry_script=f["entry_script"],
        train_args=f["train_args"],
        master_port=f["master_port"],
        master_port_explicit=True,
        deepspeed_config=f["deepspeed_config"],
    )


def _round_trip(f: dict) -> dict:
    return {k: f[k] for k in ("nodes", "gpus_per_node", "master_port", "entry_script")}


def _cells(rng: random.Random):
    """Grid cells in shuffled rounds of all 36, so every seed weighs them alike."""
    cells = [(cluster, combo) for cluster in CLUSTERS for combo in COMBOS]
    while True:
        rng.shuffle(cells)
        yield from cells


def grid_jobs(seed: int, profiles, count: int = GRID_JOBS) -> list[Job]:
    """JobSpecs over 9 clusters x 4 columns; about half carry an injected fault."""
    rng = random.Random(f"grid-repair:{seed}")
    cells, draw = _cells(rng), Draw(rng)
    jobs = []
    for i in range(count):
        f = _draw_job(draw, *next(cells), 16, 0.5)
        expect = Expected(_outcome_kind(f["cluster"], f["combo"]), _round_trip(f), _faults(f))
        jobs.append(Job(i, "grid", {"spec": _job_spec(f, profiles)}, expect))
    return jobs


def _prose_fields(f: dict, stated_port: bool) -> dict:
    framework, strategy = COMBOS[f["combo"]]
    fields = dict(cluster=f["cluster"], framework=framework, strategy=strategy,
                  nodes=f["nodes"], gpus_per_node=f["gpus_per_node"],
                  entry_script=f["entry_script"], train_args=f["train_args"],
                  deepspeed_config=f["deepspeed_config"])
    if stated_port:
        fields["master_port"] = f["master_port"]
    return fields


def prose_job(draw: Draw, index: int, cell: tuple[str, str]) -> Job:
    f = _draw_job(draw, *cell, 16, 0.3, bad_config=False)
    stated_port = draw.share("port", 0.7)
    text = describe(draw.rng, f["cluster"], f["combo"], f["nodes"], f["gpus_per_node"],
                    f["entry_script"], f["master_port"] if stated_port else None,
                    f["train_args"], f["deepspeed_config"])
    expect = Expected(_outcome_kind(f["cluster"], f["combo"]), _prose_fields(f, stated_port),
                      _faults(f))
    return Job(index, "prose", {"text": text}, expect)


def port_job(draw: Draw, index: int, profiles, tset) -> Job:
    """A script rendered for cluster A, to be ported to cluster B."""
    source_cluster = draw.deal("source", CLUSTERS)
    combo = draw.deal(("combo", source_cluster),
                      [c for c in COMBOS if (source_cluster, c) not in UNRESOLVABLE])
    f = _draw_job(draw, source_cluster, combo, 16, 0.3, bad_config=False)
    spec = _job_spec(f, profiles)
    template = tset.find_key((spec.cluster, spec.framework, spec.strategy, spec.launcher))
    source = render_for_spec(spec, template, profiles.resolve(source_cluster)).text
    target = draw.deal(("target", source_cluster), [c for c in CLUSTERS if c != source_cluster])
    ported = dict(f, cluster=target, combo=LAUNCHER_COMBO[spec.launcher.value])
    if f["gpus_per_node"] > GPUS_PER_NODE[target]:
        expect = Expected("capacity")
    else:
        expect = Expected(_outcome_kind(target, ported["combo"]), _prose_fields(ported, True),
                          _faults(ported))
    return Job(index, "port", {"source": source, "target": target}, expect)


def prose_port_jobs(seed: int, profiles, tset, count: int = PROSE_PORT_JOBS) -> list[Job]:
    """Free-text descriptions, with a port job interleaved after every two."""
    rng = random.Random(f"prose-port:{seed}")
    cells, draw = _cells(rng), Draw(rng)
    return [
        port_job(draw, i, profiles, tset) if i % 3 == 2 else prose_job(draw, i, next(cells))
        for i in range(count)
    ]


_COMBO_FLAGS = {
    "ddp": ["--framework", "pytorch", "--strategy", "ddp"],
    "fsdp": ["--framework", "pytorch", "--strategy", "fsdp"],
    "zero3": ["--framework", "deepspeed", "--strategy", "zero3"],
    "acc-ddp": ["--strategy", "acc-ddp"],
}


def cli_mix(seed: int, perlmutter_script: str, polaris_script: str) -> list[Job]:
    """One pass of cold `launchport` invocations: goldens, nine clusters, ports, exits 1 and 2.

    ``perlmutter_script`` / ``polaris_script`` are paths of files holding the
    two golden commands, the sources of the port jobs.
    """
    rng = random.Random(f"cli-cold:{seed}")
    draw = Draw(rng)
    jobs = []

    def add(argv, expect):
        jobs.append(Job(len(jobs), "cli", {"argv": argv + ["--non-interactive"]}, expect))

    for word, golden in (("Perlmutter", PERLMUTTER_COMMAND), ("Polaris", POLARIS_COMMAND)):
        cluster = "perlmutter" if word == "Perlmutter" else "aurora"
        add(["generate", GOLDEN_DESCRIPTION.format(cluster=word)],
            Expected("exit0", GOLDEN_FIELDS[cluster], golden=golden))
    for cluster in CLUSTERS:
        f = _draw_job(draw, cluster, rng.choice(tuple(COMBOS)), 8, 0.3)
        stated_port = rng.random() < 0.7
        if rng.random() < 0.5:
            argv = ["generate", describe(
                rng, cluster, f["combo"], f["nodes"], f["gpus_per_node"], f["entry_script"],
                f["master_port"] if stated_port else None, f["train_args"],
                f["deepspeed_config"])]
        else:
            argv = ["generate", "--cluster", cluster, *_COMBO_FLAGS[f["combo"]],
                    "--nodes", str(f["nodes"]), "--gpus-per-node", str(f["gpus_per_node"]),
                    "--entry", f["entry_script"]]
            if stated_port:
                argv += ["--port", str(f["master_port"])]
            if f["train_args"]:
                argv.append(f"--args={f['train_args']}")
            if f["deepspeed_config"]:
                argv += ["--answers", f"deepspeed_config={f['deepspeed_config']}"]
        fields = _round_trip(f) if stated_port else {
            k: f[k] for k in ("nodes", "gpus_per_node", "entry_script")}
        if (cluster, f["combo"]) in UNRESOLVABLE:
            add(argv, Expected("exit2", stderr_needles=("result: unresolved",)))
        else:
            add(argv, Expected("exit0", fields, _faults(f)))
    add(["generate", "--cluster", "aurora", "--strategy", "acc-ddp", "--nodes", "2",
         "--gpus-per-node", "4", "--entry", "train.py"],
        Expected("exit2", stderr_needles=("result: unresolved",)))
    add(["port", perlmutter_script, "--to", "polaris"],
        Expected("exit0", GOLDEN_FIELDS["perlmutter"]))
    add(["port", perlmutter_script, "--to", "lonestar6"],
        Expected("exit1", stderr_needles=("error:",) + CAPACITY_SUGGESTIONS))
    for source, fields in ((perlmutter_script, GOLDEN_FIELDS["perlmutter"]),
                           (polaris_script, GOLDEN_FIELDS["aurora"])):
        target = rng.choice(CLUSTERS)
        if fields["gpus_per_node"] > GPUS_PER_NODE[target]:
            add(["port", source, "--to", target], Expected("exit1", stderr_needles=("error:",)))
        else:
            faults = expected_faults(target, "ddp", fields["nodes"], fields["entry_script"])
            add(["port", source, "--to", target], Expected("exit0", fields, faults))
    return jobs


class Session:
    """Bundles loaded once, as a batch caller or the CLI holds them."""

    def __init__(self):
        from launchport import repair

        self.profiles = lp.default_profiles()
        self.tset = lp.default_templates()
        self.rules = lp.default_fault_rules()
        self.fingerprints = repair.default_fingerprints()
        self.repair_table = repair.default_repair_table()
        self.runner = {"grid": self.run_grid, "prose": self.run_prose, "port": self.run_port}

    # Each run_* call is one timed job.  Functions are looked up on the
    # launchport package at call time, so a traced run sees its wrappers.

    def run_grid(self, job: Job):
        spec = job.data["spec"]
        return spec, lp.run_pipeline(
            spec, self.profiles.resolve(spec.cluster), self.tset, self.rules,
            fingerprints=self.fingerprints, repair_table=self.repair_table,
        )

    def run_prose(self, job: Job):
        """Library-caller defaults: extract builds its own extractor, run_loop its bundles."""
        partial = lp.extract(job.data["text"])
        profile = self.profiles.resolve(partial.cluster)
        spec = lp.finalize(partial, profile)
        return spec, lp.run_pipeline(spec, profile, self.tset, self.rules)

    def run_port(self, job: Job):
        partial = lp.parse_script(job.data["source"])
        profile = self.profiles.resolve(job.data["target"])
        partial.cluster = profile.id
        try:
            spec = lp.finalize(partial, profile)
        except CapacityError:
            return None, None
        return spec, lp.run_pipeline(spec, profile, self.tset, self.rules)


def to_outcome(job: Job, spec, result) -> Outcome:
    """Reduce a job's spec and PipelineResult to an Outcome."""
    if result is None:
        return Outcome("capacity")
    script = result.script_text
    faults = tuple(
        entry.result.fault_fired
        for attempt in result.attempts if attempt.outcome is not None
        for entry in attempt.outcome.history if entry.result.fault_fired
    )
    fields = None
    if job.kind != "grid":
        fields = dict(
            cluster=spec.cluster, framework=spec.framework.value,
            strategy=spec.strategy.value, nodes=spec.nodes,
            gpus_per_node=spec.gpus_per_node, master_port=spec.master_port,
            entry_script=spec.entry_script, train_args=spec.train_args,
            deepspeed_config=spec.deepspeed_config,
        )
    return Outcome("success" if script is not None else "unresolved", script, faults,
                   len(result.attempts), fields)
