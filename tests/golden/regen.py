"""Golden corpora: what the extractor, the pipeline and the CLI give for fixed inputs.

    python tests/golden/regen.py

rewrites every corpus beside this file from the current code and prints a
unified diff against the files it replaces.  ``tests/test_golden.py``
rebuilds each corpus and compares it byte for byte, so any change to what
``extract`` reads, to what ``run_pipeline`` does or to what the user sees
shows up as a hunk here, to be explained with the change.

``extract.json`` holds every text of the bundled ``phrasings.json`` and a
fixed, seeded set of long job descriptions written from the same phrasing
lexicon as the benchmark's prose jobs: opener, model, framework and strategy
phrase, topology (digits or number words), cluster word, port, entry script,
DeepSpeed config and training arguments.  Each entry records the text and
the ``PartialJobSpec`` fields that are not at their default.

``pipeline.json`` holds one entry per cell of the 9x4 verification grid and
per scenario of the acceptance suite's fault corpus, run through
``run_pipeline`` with the bundled data: the full ranking as (template id,
``float.hex`` of the score, exact flag); per attempt the template, then the
skip reason, or the status, the iterations, each history entry (fault
fired, fingerprint id, category, action kind and payload) and the final
script, one line per list item.

``reports.json`` holds, for the same cases, each attempt's final stdout and
stderr and the ``render_report`` text, each as a list of lines with their
line ends.  ``cli.json`` holds the exit code, stdout and stderr of the
``generate`` and ``port`` runs of acceptance criteria 1 and 6; the path of
the ported script is written as ``perl.sh``.
"""

from __future__ import annotations

import contextlib
import difflib
import io
import json
import random
import sys
import tempfile
from importlib import resources
from pathlib import Path

HERE = Path(__file__).resolve().parent
CORPUS = HERE / "extract.json"
PIPELINE = HERE / "pipeline.json"
REPORTS = HERE / "reports.json"
CLI = HERE / "cli.json"
SENTENCES = 320
SEED = "golden-extract:1"

OPENERS = ("I want to train", "Please set up a job to fine-tune", "Train")
MODELS = ("ViT", "BERT", "a GPT model", "LLaMA")
COMBO_PHRASES = (
    "PyTorch DDP", "plain PyTorch data parallel", "PyTorch distributed data parallel",
    "data parallelism via torchrun", "PyTorch FSDP", "fully sharded data parallel", "FSDP",
    "DeepSpeed ZeRO-3", "DeepSpeed", "the deepspeed launcher", "DeepSpeed ZeRO stage 3",
    "acc-ddp", "HF Accelerate", "Hugging Face Accelerate and DDP",
)
CLUSTER_WORDS = (
    "Anvil", "anvil", "Aurora", "Polaris", "Bridges-2", "Bridges2", "bridges 2",
    "Delta", "delta", "DeltaAI", "Delta-AI", "delta ai", "Lonestar6", "LS6", "Lonestar-6",
    "lonestar 6", "Perlmutter", "PERLMUTTER", "pm", "Stampede3", "Stampede-3",
    "stampede 3", "Vista", "vista", "lſ6", "ſtampede3",
)
NODE_NOUNS = ("node", "compute node", "server", "machine", "host")
PORT_PHRASES = ("master port {port}", "rendezvous port {port}", "on port {port}",
                "--master_port={port}", "--port {port}", "port: {port}")
ENTRY_PHRASES = ("my training file is {entry}", "training script is {entry}", "run {entry}",
                 "python {entry}", "execute {entry}", "--entry {entry}")
ENTRIES = ("train.py", "main.py", "train_gpt2.py", "run_image_classification.py",
           "scripts/finetune.py", "official_examples/run_clm.py", "run_glue.py")
DS_PHRASES = ("--deepspeed_config {config}", "DeepSpeed config {config}")
DS_CONFIGS = ("ds_config.json", "/nonexistent/ds_config.json")
ARGS = ("", "", "--epochs 3", "--lr 3e-4 --batch-size 64", "--use-ipex",
        "--model meta-llama/Llama-3.1-8B")

_UNITS = ("one", "two", "three", "four", "five", "six", "seven", "eight", "nine")
_TEENS = ("ten", "eleven", "twelve", "thirteen", "fourteen", "fifteen", "sixteen",
          "seventeen", "eighteen", "nineteen")
_TENS = ("twenty", "thirty", "forty", "fifty", "sixty")


def _number_word(n: int, sep: str) -> str:
    if n < 10:
        return _UNITS[n - 1]
    if n < 20:
        return _TEENS[n - 10]
    tens, unit = divmod(n, 10)
    word = _TENS[tens - 2]
    return word if unit == 0 else f"{word}{sep}{_UNITS[unit - 1]}"


def _count(rng: random.Random, n: int) -> str:
    if n <= 64 and rng.random() < 0.5:
        return _number_word(n, rng.choice(("-", " ")))
    return str(n)


def _plural(word: str, n: int) -> str:
    return word if n == 1 else word + "s"


def _topology(rng: random.Random, nodes: int, gpus: int) -> str:
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


def sentence(rng: random.Random) -> str:
    """One long job description; some have their clauses shuffled or upper-cased."""
    parts = [
        f"{rng.choice(OPENERS)} {rng.choice(MODELS)} with {rng.choice(COMBO_PHRASES)}",
        _topology(rng, rng.randint(1, 16), rng.randint(1, 8)),
        f"on {rng.choice(CLUSTER_WORDS)}",
    ]
    if rng.random() < 0.7:
        parts.append(rng.choice(PORT_PHRASES).format(port=rng.randint(20000, 40000)))
    parts.append(rng.choice(ENTRY_PHRASES).format(entry=rng.choice(ENTRIES)))
    if rng.random() < 0.3:
        parts.append(rng.choice(DS_PHRASES).format(config=rng.choice(DS_CONFIGS)))
    if rng.random() < 0.2:
        rng.shuffle(parts)
    text = ", ".join(parts)
    args = rng.choice(ARGS)
    if args:
        text += f" and my training arguments are {args}"
    if rng.random() < 0.1:
        text = text.upper()
    return text


def texts() -> list[str]:
    """Every phrasing, then the seeded sentences, in a fixed order."""
    data = resources.files("launchport.data").joinpath("phrasings.json").read_text("utf-8")
    rng = random.Random(SEED)
    return [entry["text"] for entry in json.loads(data)] + [
        sentence(rng) for _ in range(SENTENCES)]


def _fields(spec) -> dict:
    """The spec's fields that are not at their default, enums as their values."""
    default = type(spec)()
    out = {}
    for name in spec._fields:
        value = getattr(spec, name)
        if value != getattr(default, name):
            out[name] = getattr(value, "value", value)
    return out


def build() -> str:
    """The corpus text as the current extractor gives it: one entry per line."""
    from launchport.intent import extract

    entries = [json.dumps({"text": t, "spec": _fields(extract(t))}, ensure_ascii=False)
               for t in texts()]
    return "[\n" + ",\n".join(entries) + "\n]\n"


def _attempt(attempt) -> dict:
    record = {"template": attempt.candidate.template_id}
    if attempt.skip_reason is not None:
        record["skipped"] = attempt.skip_reason
        return record
    outcome = attempt.outcome
    record["status"] = outcome.status
    record["iterations"] = outcome.iterations_used
    record["history"] = [
        {
            "fault": entry.result.fault_fired,
            "fingerprint": entry.diagnosis.fingerprint_id,
            "category": entry.diagnosis.category,
            "action": None if entry.action is None
            else {"kind": entry.action.kind, "payload": entry.action.payload},
        }
        for entry in outcome.history
    ]
    record["script"] = outcome.final_script.text.splitlines()
    return record


def _dump(value, indent: str = "") -> str:
    """JSON with a container on one line when it fits in 100 columns."""
    flat = json.dumps(value, ensure_ascii=False)
    if len(indent) + len(flat) <= 100 or not isinstance(value, (list, dict)) or not value:
        return flat
    inner = indent + " "
    if isinstance(value, list):
        items = [inner + _dump(item, inner) for item in value]
    else:
        items = [f"{inner}{json.dumps(k)}: {_dump(v, inner)}" for k, v in value.items()]
    opener, closer = ("[", "]") if isinstance(value, list) else ("{", "}")
    return opener + "\n" + ",\n".join(items) + "\n" + indent + closer


def build_pipeline() -> str:
    """The pipeline corpus as the current code gives it."""
    from conftest import pipeline_cases
    from launchport.clusters import default_profiles
    from launchport.pipeline import run_pipeline
    from launchport.simcluster import default_fault_rules
    from launchport.templates import default_templates

    templates, rules = default_templates(), default_fault_rules()
    entries = []
    for name, spec, profile in pipeline_cases(default_profiles()):
        result = run_pipeline(spec, profile, templates, rules)
        entries.append({
            "case": name,
            "ranking": [[c.template_id, c.score.hex(), c.exact] for c in result.candidates],
            "attempts": [_attempt(a) for a in result.attempts],
        })
    return _dump(entries) + "\n"


def build_reports() -> str:
    """Each case's final stdout and stderr per attempt and its report text."""
    from conftest import pipeline_cases
    from launchport.clusters import default_profiles
    from launchport.pipeline import render_report, run_pipeline
    from launchport.simcluster import default_fault_rules
    from launchport.templates import default_templates

    templates, rules = default_templates(), default_fault_rules()
    entries = []
    for name, spec, profile in pipeline_cases(default_profiles()):
        result = run_pipeline(spec, profile, templates, rules)
        attempts = []
        for attempt in result.attempts:
            record = {"template": attempt.candidate.template_id}
            if attempt.outcome is not None:
                final = attempt.outcome.final_result
                record["stdout"] = final.stdout.splitlines(keepends=True)
                record["stderr"] = final.stderr.splitlines(keepends=True)
            attempts.append(record)
        entries.append({
            "case": name,
            "attempts": attempts,
            "report": render_report(result).splitlines(keepends=True),
        })
    return _dump(entries) + "\n"


def _cli_runs(source: Path) -> list[list[str]]:
    """The argv of the criterion 1 and criterion 6 runs."""
    from conftest import TABLE_DESCRIPTION

    return [
        ["generate", TABLE_DESCRIPTION.format(cluster="Perlmutter"), "--non-interactive"],
        ["generate", TABLE_DESCRIPTION.format(cluster="Polaris"), "--non-interactive"],
        ["port", str(source), "--to", "polaris", "--non-interactive"],
        ["port", str(source), "--to", "lonestar6", "--non-interactive"],
    ]


def build_cli() -> str:
    """Exit code, stdout and stderr of each criterion 1 and 6 CLI run."""
    from conftest import PERLMUTTER_COMMAND
    from launchport.cli import main

    entries = []
    with tempfile.TemporaryDirectory() as tmp:
        source = Path(tmp) / "perl.sh"
        source.write_text(PERLMUTTER_COMMAND, "utf-8")
        for argv in _cli_runs(source):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
            entries.append({
                "argv": [arg.replace(str(source), "perl.sh") for arg in argv],
                "exit": code,
                "stdout": out.getvalue().replace(str(source), "perl.sh").splitlines(True),
                "stderr": err.getvalue().replace(str(source), "perl.sh").splitlines(True),
            })
    return _dump(entries) + "\n"


def _rewrite(path: Path, new: str) -> None:
    old = path.read_text("utf-8") if path.exists() else ""
    path.write_text(new, "utf-8")
    sys.stdout.writelines(difflib.unified_diff(
        old.splitlines(keepends=True), new.splitlines(keepends=True),
        f"{path.name} (old)", f"{path.name} (new)"))


def main() -> int:
    _rewrite(CORPUS, build())
    _rewrite(PIPELINE, build_pipeline())
    _rewrite(REPORTS, build_reports())
    _rewrite(CLI, build_cli())
    return 0


if __name__ == "__main__":
    sys.path[:0] = [str(HERE.parents[1] / "src"), str(HERE.parent)]
    sys.exit(main())
