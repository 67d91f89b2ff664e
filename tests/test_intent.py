import itertools
import json
import os
import re
import string
import subprocess
import sys
from collections.abc import Sized
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import assume, example, given, strategies as st

from launchport import intent, prose
from launchport.clusters import default_profiles
from launchport.errors import (
    CapacityError,
    IncompleteSpecError,
    InconsistentTopologyError,
)
from launchport.intent import (
    JobSpec,
    PartialJobSpec,
    derive,
    finalize,
    missing_fields,
    parse_script,
)
from launchport.lint import lint
from launchport.prose import NUMBER_WORDS, RuleBasedExtractor, extract
from launchport.simcluster import load_fault_rules, submit
from launchport.synthesis import RenderedScript, render_for_spec
from launchport.types import Framework, Launcher, Strategy

from conftest import PERLMUTTER_COMMAND, POLARIS_COMMAND, TABLE_DESCRIPTION, make_spec


class TestExtract:
    def test_reference_description(self):
        p = extract(TABLE_DESCRIPTION.format(cluster="Perlmutter"))
        assert p.cluster == "perlmutter"
        assert p.launcher is Launcher.TORCHRUN
        assert p.total_gpus == 8
        assert p.nodes == 2
        assert p.entry_script == "run_image_classification.py"
        assert p.framework is None and p.strategy is None

    def test_node_phrasing_variants(self):
        for text in ("two nodes", "I'll use 2 servers", "--nodes 2"):
            assert extract(text).nodes == 2, text

    def test_empty_text_rejected(self):
        for read in (extract, RuleBasedExtractor({}).extract):
            with pytest.raises(ValueError) as exc:
                read("")
            assert str(exc.value) == "extract requires non-empty text"

    def test_unextractable_text_lands_in_train_args(self):
        p = extract("hello")
        assert p.nodes is None and p.cluster is None
        assert p.train_args == "hello"

    def test_explicit_args_marker_captures_tail(self):
        p = extract("train on 2 nodes, my training arguments is --lr 3e-4 --epochs 2")
        assert p.nodes == 2
        assert p.train_args == "--lr 3e-4 --epochs 2"

    def test_bare_gpu_count_reads_as_total(self):
        p = extract("use 8 GPUs on Perlmutter")
        assert p.total_gpus == 8 and p.gpus_per_node is None

    def test_per_node_gpu_count(self):
        p = extract("4 GPUs per node across 2 nodes")
        assert p.gpus_per_node == 4 and p.nodes == 2

    def test_number_words_beyond_sixty_four_need_digits(self):
        assert extract("one hundred nodes").nodes is None
        assert extract("100 nodes").nodes == 100


class TestNumberWords:
    # (phrasing, field it fills); every number word must read the same in each.
    PHRASINGS = (
        ("train on {} nodes", "nodes"),
        ("{} GPUs per node", "gpus_per_node"),
        ("{} gpus/node", "gpus_per_node"),
        ("{} GPUs in total", "total_gpus"),
    )

    @pytest.mark.parametrize("phrasing, field", PHRASINGS)
    def test_every_word_in_every_case(self, phrasing, field):
        for word, value in NUMBER_WORDS.items():
            for form in (word, word.upper(), word.title()):
                text = phrasing.format(form)
                assert getattr(extract(text), field) == value, text

    def test_only_whole_words_count(self):
        assert extract("sixty-five GPUs").total_gpus == 5
        seventy = extract("seventy GPUs")
        assert seventy.total_gpus is None and seventy.gpus_per_node is None
        assert extract("eighteen GPUs per node").gpus_per_node == 18
        p = extract("someone asked for nodes with eightfold GPUs")
        assert (p.nodes, p.gpus_per_node, p.total_gpus) == (None, None, None)

    def test_words_matched_through_non_ascii_letters_are_no_count(self):
        # re.I matches "ſ" to "s" and "ı" to "i"; the word is not read.
        assert extract("train on six nodes").nodes == 6
        assert extract("train on ſix nodes").nodes is None
        assert extract("train on sıx nodes, ſix GPUs per node").gpus_per_node is None

    def test_flags_take_digits_only(self):
        assert extract("--nodes two").nodes is None
        assert extract("--nodes 3, or two nodes").nodes == 3


def _cluster_by_loop(names, text):
    """Reference: one search per name, earliest start wins, longest name on a tie."""
    earliest = None
    for name, canonical in sorted(names.items(), key=lambda kv: len(kv[0]), reverse=True):
        m = re.search(rf"(?<![\w-]){re.escape(name)}(?![\w-])", text, re.I)
        if m and (earliest is None or m.start() < earliest[0]):
            earliest = (m.start(), canonical)
    return earliest[1] if earliest else None


class TestClusterSearch:
    def test_earlier_of_two_clusters_wins(self):
        assert extract("move this from Vista to Anvil").cluster == "vista"
        assert extract("move this from Anvil to Vista").cluster == "anvil"

    def test_longer_name_wins_at_the_same_position(self):
        assert extract("train on Delta AI with 2 nodes").cluster == "deltaai"
        assert extract("train on DeltaAI").cluster == "deltaai"
        assert extract("train on Delta with 2 nodes").cluster == "delta"

    @pytest.mark.parametrize("text", [
        "a perlmutter-like machine", "xperlmutter", "perlmutter2", "my-vista box",
        "vista_cluster",
    ])
    def test_names_glued_to_word_characters_or_hyphens_are_ignored(self, text):
        assert extract(text).cluster is None

    def test_non_ascii_case_variant_maps_to_its_id(self):
        # re.I matches "ſ" (long s) for "s" and the Kelvin sign for "k".
        assert extract("run it on lſ6").cluster == "lonestar6"
        assert extract("run it on ſtampede 3").cluster == "stampede3"
        assert RuleBasedExtractor({"kestrel": "kestrel"}).extract(
            "\u212aestrel").cluster == "kestrel"

    def test_names_not_starting_with_an_ascii_letter(self):
        extractor = RuleBasedExtractor({"9lives": "ninelives", "_x": "underscore",
                                        "école": "ecole", "delta": "delta"})
        assert extractor.extract("run on 9lives with 2 nodes").cluster == "ninelives"
        assert extractor.extract("run on _x").cluster == "underscore"
        assert extractor.extract("run on ÉCOLE").cluster == "ecole"
        assert extractor.extract("run on delta").cluster == "delta"

    def test_names_that_are_also_words_the_extractor_reads(self):
        # A name found through its first word leaves that word's phrase read too.
        names = {"on": "onyx", "4": "four", "port": "harbor", "configs": "cfg", "two": "pair"}
        extractor = RuleBasedExtractor(names)
        for text in ("4 nodes on port 29500", "run on two nodes", "deepspeed configs.json, 4 nodes"):
            assert extractor.extract(text) == _extract_reference(text, names), text
        p = extractor.extract("4 nodes on port 29500")
        assert (p.cluster, p.nodes, p.master_port) == ("four", 4, 29500)

    def test_empty_registry_names_no_cluster(self):
        assert RuleBasedExtractor({}).extract("train on perlmutter").cluster is None

    _NAMES = default_profiles().names()
    _TOKENS = sorted(_NAMES) + [
        "ſtampede3", "lſ6", "PERLMUTTER", "Delta", "AI", "ai", "-", "x", "2",
        "on", "to", "\u212a", "ſ", "nodes",
    ]

    @given(st.lists(
        st.tuples(st.sampled_from(_TOKENS), st.sampled_from(["", " ", "-", "_", ", ", "\n"]),
                  st.sampled_from([str, str.upper, str.title])),
        min_size=1, max_size=8,
    ))
    @example([("pm", "-", str), ("delta ai", "", str.title), ("vista", "", str)])
    @example([("x", "", str), ("lſ6", " ", str), ("bridges 2", "", str.upper)])
    def test_single_search_equals_per_name_loop(self, parts):
        text = "".join(case(token) + sep for token, sep, case in parts)
        extractor = RuleBasedExtractor(self._NAMES)
        assert extractor.extract(text).cluster == _cluster_by_loop(self._NAMES, text)


# Reference: the extractor as one search per pattern over the text and over a
# copy with number words rewritten as digits, with the "--entry" flag tried
# before the entry phrases and a count too long for int() ignored like 0.
_REF_NUMBER_WORD = re.compile(
    r"\b(?=[" + "".join(sorted({w[0] for w in NUMBER_WORDS})) + "])(?:"
    + "|".join(sorted((re.escape(w) for w in NUMBER_WORDS), key=len, reverse=True))
    + r")\b",
    re.I,
)
_REF_NODE_NOUN = r"(?:compute\s+|gpu\s+)?(?:nodes?|servers?|machines?|hosts?)"
_REF_FLAGS = {
    "nodes": re.compile(r"--n?nodes[=\s]+(\d+)", re.I),
    "gpus_per_node": re.compile(
        r"--(?:gpus[-_]per[-_]node|nproc[-_]per[-_]node)[=\s]+(\d+)", re.I),
    "total_gpus": re.compile(r"--(?:total[-_]gpus|num[-_]gpus)[=\s]+(\d+)", re.I),
    "master_port": re.compile(
        r"--(?:master[-_]port|main[-_]process[-_]port|port)[=\s]+(\d+)", re.I),
}
_REF_NODES = [
    re.compile(rf"\b(\d+)\s+{_REF_NODE_NOUN}\b", re.I),
    re.compile(rf"\b(?:across|on|over|spanning|spread\s+over)\s+(\d+)\s+{_REF_NODE_NOUN}\b",
               re.I),
]
_REF_SINGLE_NODE = re.compile(
    r"\b(?:a\s+single|single|one)[-\s](?:node|server|machine|host)\b", re.I)
_REF_GPUS_PER_NODE = [
    re.compile(r"\b(\d+)\s+gpus?\s+(?:per|on\s+each|in\s+each|for\s+each|each|a)\s+"
               r"(?:node|server|machine|host)\b", re.I),
    re.compile(r"\b(\d+)\s+gpus?\s*/\s*node\b", re.I),
    re.compile(r"\b(\d+)\s+gpus?\s+(?:each|apiece)\b", re.I),
    re.compile(r"\bper[-\s]node\s+gpus?\s*(?:of|is|:|=)?\s*(\d+)\b", re.I),
]
_REF_TOTAL_GPUS = [
    re.compile(r"\b(\d+)\s+gpus?\s+(?:in\s+total|total|overall|altogether)\b", re.I),
    re.compile(r"\b(?:a\s+)?total\s+of\s+(\d+)\s+gpus?\b", re.I),
    re.compile(r"\b(\d+)\s+total\s+gpus?\b", re.I),
    re.compile(r"\b(\d+)\s+gpus?\b", re.I),
]
# A bare "N GPUs": no node noun, "each", per-node or total phrase follows.
_REF_BARE_GPUS = re.compile(
    r"\b(\d+)\s+(?!gpu\s+(?:node|server|machine|host)s?\b)gpus?\b(?!\s+each\s+"
    r"(?:node|server|machine|host)\b|\s+(?:per|on\s+each|in\s+each|for\s+each|a)\s+"
    r"(?:node|server|machine|host)\b|\s*/\s*node\b|\s+(?:each|apiece)\b"
    r"|\s+(?:in\s+total|total|overall|altogether)\b)", re.I)
_REF_PORT = re.compile(
    r"\b(?:master\s+|rendezvous\s+)?port\s*(?:is|of|:|=)?\s*(\d{4,5})\b", re.I)
_REF_ENTRY = [
    re.compile(r"--entry(?:[-_]script)?[=\s]+([\w./-]+\.(?:py|sh))", re.I),
    re.compile(r"\b(?:training|train|entry|launch|main)\s+(?:file|script|point|program)\s*"
               r"(?:is|will\s+be|:|=)?\s*([\w./-]+\.(?:py|sh))", re.I),
    re.compile(r"\b(?:run|execute|launch|start)\s+([\w./-]+\.py)\b", re.I),
    re.compile(r"\bpython3?\s+(?:-u\s+)?([\w./-]+\.py)\b", re.I),
]
_REF_ANY_PY = re.compile(r"(?<![\w/.-])([\w./-]+\.py)\b")
_REF_DS_CONFIG = [
    re.compile(r"--deepspeed[-_]config[=\s]+(\S*[^\s,;])", re.I),
    re.compile(r"\b(?:deepspeed\s+)?config(?:uration)?(?:\s+file)?\s*(?:is|at|:|=)?\s*"
               r"([\w./-]+\.json)", re.I),
    re.compile(r"(?<![\w/.-])([\w./-]+\.json)\b"),
]
_REF_ARGS = re.compile(
    r"\b(?:(?:my|the|with)\s+)?(?:training\s+|extra\s+)?arg(?:ument)?s?\s+"
    r"(?:is|are|being|:)\s*(.+)$", re.I | re.S)
_REF_FRAMEWORKS = [
    (re.compile(r"\bpytorch\b", re.I), Framework.PYTORCH),
    (re.compile(r"\bdeep\s?speed\b", re.I), Framework.DEEPSPEED),
    (re.compile(r"\b(?:hf\s+|hugging\s?face\s+)?accelerate\b", re.I), Framework.ACCELERATE),
]
_REF_STRATEGIES = [
    (re.compile(r"\bfsdp\b|\bfully[-\s]sharded(?:\s+data[-\s]parallel(?:ism)?)?\b", re.I),
     Strategy.FSDP),
    (re.compile(r"\bzero[-\s]?3\b|\bzero\s+stage\s+3\b|\bstage[-\s]?3\b|\bzero3\b", re.I),
     Strategy.ZERO3),
    (re.compile(r"\bddp\b|\bdistributed\s+data[-\s]parallel(?:ism)?\b|"
                r"\bdata[-\s]parallel(?:ism)?\b", re.I), Strategy.DDP),
]
_REF_ACC_DDP = re.compile(r"\bacc(?:elerate)?[-\s]ddp\b", re.I)
_REF_LAUNCHERS = [
    (re.compile(r"\btorchrun\b", re.I), Launcher.TORCHRUN),
    (re.compile(r"\bmpiexec\b|\bmpirun\b", re.I), Launcher.MPIEXEC),
    (re.compile(r"\bsrun\b", re.I), Launcher.SRUN),
    (re.compile(r"\bdeepspeed\s+launcher\b", re.I), Launcher.DEEPSPEED),
    (re.compile(r"\baccelerate\s+launch(?:er)?\b", re.I), Launcher.ACCELERATE),
]


def _ref_first_int(text, *patterns):
    for pattern in patterns:
        m = pattern.search(text)
        if m:
            try:
                value = int(m.group(1))
            except ValueError:
                continue
            if value >= 1:
                return value
    return None


def _extract_reference(text, cluster_names=None):
    if cluster_names is None:
        cluster_names = default_profiles().names()
    ordered = sorted(cluster_names.items(), key=lambda kv: len(kv[0]), reverse=True)
    alternation = "|".join(f"({re.escape(name)})" for name, _ in ordered) or "(?!)"
    spec = PartialJobSpec()
    matched_any = False

    m = re.search(rf"(?<![\w-])(?:{alternation})(?![\w-])", text, re.I)
    if m:
        spec.cluster = ordered[m.lastindex - 1][1]
        matched_any = True
    for pattern, framework in _REF_FRAMEWORKS:
        if pattern.search(text):
            spec.framework = framework
            matched_any = True
            break
    if _REF_ACC_DDP.search(text):
        spec.framework = Framework.ACCELERATE
        spec.strategy = Strategy.DDP
        matched_any = True
    else:
        for pattern, strategy in _REF_STRATEGIES:
            if pattern.search(text):
                spec.strategy = strategy
                matched_any = True
                break
    for pattern, launcher in _REF_LAUNCHERS:
        if pattern.search(text):
            spec.launcher = launcher
            matched_any = True
            break

    digits = _REF_NUMBER_WORD.sub(
        lambda m: str(NUMBER_WORDS.get(m.group().lower(), m.group())), text)
    nodes = _ref_first_int(text, _REF_FLAGS["nodes"]) or _ref_first_int(digits, *_REF_NODES)
    if nodes is None and _REF_SINGLE_NODE.search(text):
        nodes = 1
    if nodes is not None:
        spec.nodes = nodes
        matched_any = True
    per_node = (_ref_first_int(text, _REF_FLAGS["gpus_per_node"])
                or _ref_first_int(digits, *_REF_GPUS_PER_NODE))
    if per_node is not None:
        spec.gpus_per_node = per_node
        matched_any = True
    if per_node is None or nodes is None:
        # Beside a per-node count a stated total counts, then a bare "N GPUs"
        # ("4 GPUs per node" is not one).
        totals = _REF_TOTAL_GPUS if per_node is None else [*_REF_TOTAL_GPUS[:-1], _REF_BARE_GPUS]
        total = (_ref_first_int(text, _REF_FLAGS["total_gpus"])
                 or _ref_first_int(digits, *totals))
        if total is not None:
            spec.total_gpus = total
            matched_any = True
    port = _ref_first_int(text, _REF_FLAGS["master_port"], _REF_PORT)
    if port is not None and 1024 <= port <= 65535:
        spec.master_port = port
        matched_any = True

    for pattern in _REF_ENTRY:
        m = pattern.search(text)
        if m:
            spec.entry_script = m.group(1)
            matched_any = True
            break
    else:
        m = _REF_ANY_PY.search(text)
        if m:
            spec.entry_script = m.group(1)
            matched_any = True
    if spec.framework is Framework.DEEPSPEED or "deepspeed" in text.lower():
        for pattern in _REF_DS_CONFIG:
            m = pattern.search(text)
            if m:
                spec.deepspeed_config = m.group(1)
                matched_any = True
                break

    args_match = _REF_ARGS.search(text)
    if args_match:
        spec.train_args = args_match.group(1).strip()
    elif not matched_any:
        spec.train_args = text.strip()
    return spec


# Lexicon tokens for soups: every kind of word the extractor reads, and near misses.
_SOUP_TOKENS = sorted(NUMBER_WORDS) + [
    "0", "00", "1", "2", "3", "8", "16", "64", "65", "100", "29500", "80", "123456",
    "٣", "9" * 4301,
    "node", "nodes", "compute nodes", "gpu nodes", "server", "servers", "machine",
    "machines", "host", "hosts", "GPU", "GPUs", "gpu", "gpus", "gpu/node", "/", "per",
    "per node", "per-node", "each", "apiece", "a", "on", "in", "for", "across", "over",
    "spread over", "spanning", "single", "a single", "total", "in total", "total of",
    "overall", "altogether", "of", "is", "are", ":", "=", "port", "master port",
    "rendezvous port", "--nodes", "--nnodes", "--gpus-per-node", "--nproc_per_node",
    "--total-gpus", "--num_gpus", "--port", "--master_port", "--main_process_port",
    "--entry", "--entry-script", "--deepspeed_config", "--", "train.py", "main.py",
    "scripts/x.py", "x.PY", "run.sh", "ds.json", "a/ds_config.json", "./t.py",
    "training", "train", "file", "script", "scripts", "program", "point", "entry",
    "launch", "main", "run", "execute", "start", "python", "python3", "-u", "will be",
    "config", "configuration", "deepspeed", "DeepSpeed", "deep speed", "launcher",
    "accelerate", "hf", "hugging face", "acc", "ddp", "fsdp", "fully", "sharded",
    "data", "parallel", "parallelism", "distributed", "zero", "zero3", "stage", "torchrun",
    "mpiexec", "mpirun", "srun", "pytorch", "args", "arguments", "my", "with",
    "ſ", "\u212a", "ı", "İ", "ſix", "ſingle", "iſ", "deepſpeed", "fſdp", "\u212aestrel",
] + sorted(default_profiles().names()) + ["lſ6", "ſtampede3"]
_SOUP_SEPARATORS = [" ", "-", "_", ", ", "/", "\n", "", ".", "\t", "=", ":", "(", "'"]


@st.composite
def _soups(draw):
    parts = draw(st.lists(
        st.tuples(st.sampled_from(_SOUP_TOKENS), st.sampled_from(_SOUP_SEPARATORS),
                  st.sampled_from([str, str.upper, str.title])),
        min_size=1, max_size=14,
    ))
    return "".join(case(token) + sep for token, sep, case in parts)


def test_the_fold_maps_every_re_i_match_of_an_ascii_letter():
    # The extractor folds the text before it looks words up; the fold must map
    # every character that re.I matches to an ASCII letter.
    ascii_letter = re.compile("[a-z]", re.I)
    folds = {}
    for code in range(0x80, 0x110000):
        char = chr(code)
        if ascii_letter.match(char):
            letter = next(x for x in string.ascii_lowercase if re.match(x, char, re.I))
            folds[letter] = folds.get(letter, "") + char
    assert folds == prose._FOLDS


class TestReferenceEquivalence:
    """The extractor gives the reference's PartialJobSpec on any text."""

    @given(_soups())
    @example("Train on Perlmutter, --entry scripts/x.py")
    @example("twenty one.py")
    @example("twenty-one-node, 4 gpus")
    @example("0 nodes, on 3 nodes, 0 GPUs per node, per node gpus: five")
    @example("--port 00000 port 29500")
    @example("launch programs.py")
    @example("per node gpus8, total of twenty-one gpus")
    @example("deepspeed --deepspeed_config ;, x.json")
    # A bare total beside a per-node count: it sets the nodes, or does not split.
    @example("train on 8 GPUs, 4 GPUs per node on delta")
    @example("train on 6 GPUs, 4 GPUs per node on delta")
    # A word start right after ".", "/" or "-", across two words, or a flag
    # after ",": a word index that missed the start would read nothing there.
    @example("x.pytorch a/fsdp b-torchrun c.two nodes")
    @example("twenty one GPUs per node")
    @example("--entry=x.py")
    @example("on delta,--nodes 2,--port 29500")
    def test_lexicon_soups(self, text):
        if text:
            assert extract(text) == _extract_reference(text)

    def test_every_phrasing_and_golden_text(self):
        from golden import regen

        for text in regen.texts():
            assert extract(text) == _extract_reference(text), text

    @given(st.text(min_size=1))
    def test_arbitrary_text(self, text):
        assert extract(text) == _extract_reference(text)


def _sizes(namespace):
    """Each value's size: a cache's entry count, a container's length or its
    bytes, and the same one level down, through a dict's values and the cells of
    a function's closure."""

    def size(value):
        if hasattr(value, "cache_info"):
            return value.cache_info().currsize
        return len(value) if isinstance(value, Sized) else sys.getsizeof(value)

    sizes = {}
    for name, value in namespace.items():
        if name.startswith("__"):  # the module's builtins and dunders
            continue
        sizes[name] = size(value)
        inner = value.values() if isinstance(value, dict) else [value]
        for i, item in enumerate(inner):
            for j, cell in enumerate(getattr(item, "__closure__", None) or ()):
                sizes[name, i, j] = size(cell.cell_contents)
            if isinstance(value, dict):
                sizes[name, i] = size(item)
    return sizes


def test_extract_keeps_nothing_of_the_texts_it_read():
    # Extraction is pure: no memo of texts, results or matches grows with use.
    extractor = RuleBasedExtractor()
    clusters = sorted(default_profiles().names())
    words = sorted(NUMBER_WORDS)
    texts = [f"train {words[n % len(words)]} nodes with {n} GPUs per node on "
             f"{clusters[n % len(clusters)]}, port {20000 + n}, run t{n}.py and DeepSpeed "
             f"config c{n}.json, torchrun --nodes {n}; arguments are --seed {n}"
             for n in range(1, 1001)]
    before = (_sizes(vars(extractor)), _sizes(vars(prose)))
    assert len({extractor.extract(text).train_args for text in texts}) == 1000
    assert (_sizes(vars(extractor)), _sizes(vars(prose))) == before


def test_phrases_compile_only_when_a_text_reaches_them():
    # A fresh extractor compiles no phrase pattern; a text compiles the ones its
    # words head.
    code = (
        "import re\n"
        "import launchport.prose as p\n"
        "def compiled():\n"
        "    return sorted(w for w, ph in p._PHRASES.items()\n"
        "                  if isinstance(ph.match.__self__, re.Pattern))\n"
        "p.RuleBasedExtractor()\n"
        "print(compiled())\n"
        "p.extract('use PyTorch on 2 nodes')\n"
        "print(compiled())\n"
    )
    src = str(Path(prose.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True, env=dict(os.environ, PYTHONPATH=src))
    built, used = done.stdout.splitlines()
    assert built == "[]"
    heads = ["across", "on", "over", "spanning", "pytorch", *sorted(NUMBER_WORDS)]
    assert used == str(sorted(w for w in heads if " " not in w and "-" not in w))


_HUGE_COUNT_SCRIPTS = (
    "torchrun --nnodes " + "9" * 5000 + " --nproc_per_node 4 train.py",
    "mpiexec -n " + "9" * 5000 + " -ppn 4 python train.py",
)


class TestNeverRaises:
    @given(st.text(min_size=1))
    @example("9" * 5000 + " nodes")
    @example("--nodes " + "9" * 5000)
    @example("--port " + "9" * 5000 + " port 29500")
    def test_extract(self, text):
        extract(text)

    @given(st.text())
    @example(_HUGE_COUNT_SCRIPTS[0])
    @example(_HUGE_COUNT_SCRIPTS[1])
    def test_parse_script(self, text):
        parse_script(text)

    def test_counts_beyond_int_are_ignored_like_zero(self):
        many = "9" * 5000
        assert extract(f"{many} nodes").nodes is None
        assert extract(f"--nodes {many}, 3 nodes").nodes == 3
        assert extract(f"--port {many}, port 29500").master_port == 29500
        assert parse_script(f"torchrun --nnodes {many} --nproc_per_node 4 t.py").nodes is None


class TestEntryFlag:
    def test_flag_wins_over_entry_phrase(self):
        # "entry scripts/x.py" inside the flag also reads as an entry phrase.
        p = extract("Train ViT with PyTorch DDP on Delta, --entry scripts/finetune.py")
        assert p.entry_script == "scripts/finetune.py"
        p = extract("my training file is a.py, --entry-script=b.py")
        assert p.entry_script == "b.py"


class TestDeepSpeedConfigFlag:
    @pytest.mark.parametrize("text, config", [
        ("use DeepSpeed, --deepspeed_config ds.json, on Delta", "ds.json"),
        ("DeepSpeed --deepspeed_config=ds.json; on Delta", "ds.json"),
        ("DeepSpeed --deepspeed_config ds.json,, on Delta", "ds.json"),
        ("DeepSpeed --deepspeed_config a,b.json on Delta", "a,b.json"),
        ("DeepSpeed --deepspeed_config , config is c.json", "c.json"),
        ("use DeepSpeed, DeepSpeed config ds.json, on Delta", "ds.json"),
    ])
    def test_trailing_comma_or_semicolon_is_not_part_of_the_value(self, text, config):
        assert extract(text).deepspeed_config == config
        assert _extract_reference(text).deepspeed_config == config


class TestPhrasingCorpus:
    def test_corpus_agreement_is_total(self):
        data = resources.files("launchport.data").joinpath("phrasings.json").read_text("utf-8")
        entries = json.loads(data)
        extractor = RuleBasedExtractor()
        by_field: dict[str, int] = {}
        for entry in entries:
            by_field[entry["field"]] = by_field.get(entry["field"], 0) + 1
            spec = extractor.extract(entry["text"])
            value = getattr(spec, entry["field"])
            if hasattr(value, "value"):
                value = value.value
            assert value == entry["expected"], (
                f"{entry['text']!r}: {entry['field']}={value!r}, "
                f"expected {entry['expected']!r}"
            )
        assert all(n >= 30 for n in by_field.values()), by_field


class TestMissingFields:
    def test_reference_description_is_complete(self):
        p = extract(TABLE_DESCRIPTION.format(cluster="Perlmutter"))
        assert missing_fields(p) == []

    def test_empty_spec_lists_all_required_in_order(self):
        assert missing_fields(PartialJobSpec()) == [
            "cluster", "framework", "strategy", "nodes", "gpus_per_node", "entry_script",
        ]

    def test_counts_derivable(self):
        p = PartialJobSpec(nodes=2, total_gpus=8)
        assert missing_fields(p) == ["cluster", "framework", "strategy", "entry_script"]

    def test_strategy_implies_framework(self):
        p = PartialJobSpec(strategy=Strategy.ZERO3)
        assert "framework" not in missing_fields(p)
        assert derive(p).framework is Framework.DEEPSPEED

    @pytest.mark.parametrize("text", [
        "8 GPUs in total, 3 GPUs per node",
        "a total of 8 GPUs with 3 GPUs per node",
        "--total-gpus 8 --gpus-per-node 3",
        "train on 8 GPUs, 3 GPUs per node",
    ])
    def test_a_total_that_does_not_split_per_node_is_inconsistent(self, text):
        # No node count could mend it, so it is not reported as a missing one.
        p = extract(text)
        assert (p.nodes, p.gpus_per_node, p.total_gpus) == (None, 3, 8)
        for check in (missing_fields, lambda p: finalize(p, default_profiles().resolve("delta"))):
            with pytest.raises(InconsistentTopologyError,
                               match="^8 total GPUs cannot be split into 3 per node$"):
                check(p)

    def test_a_stated_total_beside_a_per_node_count_sets_the_nodes(self):
        p = extract("12 GPUs in total, 4 GPUs per node")
        assert missing_fields(p) == ["cluster", "framework", "strategy", "entry_script"]
        assert derive(p).nodes == 3

    def test_a_bare_total_beside_a_per_node_count_sets_the_nodes(self):
        p = extract("train on 8 GPUs, 4 GPUs per node on delta")
        assert (p.nodes, p.gpus_per_node, p.total_gpus) == (None, 4, 8)
        assert missing_fields(p) == ["framework", "strategy", "entry_script"]
        assert derive(p).nodes == 2

    def test_a_stated_node_count_leaves_a_bare_total_unread(self):
        p = extract("train on 8 GPUs, 4 GPUs per node, 3 nodes on delta")
        assert (p.nodes, p.gpus_per_node, p.total_gpus) == (3, 4, None)


@given(field=st.sampled_from(["nodes", "gpus_per_node", "total_gpus", "master_port"]),
       value=st.integers() | st.sampled_from([-10**5000, 10**5000, 0, 80, 65536]))
def test_a_rejected_int_gets_the_documented_message(field, value):
    if field == "master_port":
        expected, accepted = "master_port must be in [1024, 65535], got ", 1024 <= value <= 65535
    else:
        expected, accepted = f"{field} must be >= 1, got ", value >= 1
    if accepted:
        assert getattr(PartialJobSpec(**{field: value}), field) == value
        return
    with pytest.raises(ValueError) as exc:
        PartialJobSpec(**{field: value})
    assert str(exc.value).startswith(expected)


class TestFinalize:
    def test_derives_once(self, profiles, monkeypatch):
        derived = []
        derive_ = intent.derive
        monkeypatch.setattr(intent, "derive", lambda p: derived.append(p) or derive_(p))
        finalize(extract(TABLE_DESCRIPTION.format(cluster="Perlmutter")),
                 profiles.resolve("perlmutter"))
        assert len(derived) == 1

    def test_total_split_across_nodes(self, profiles):
        p = extract(TABLE_DESCRIPTION.format(cluster="Perlmutter"))
        spec = finalize(p, profiles.resolve("perlmutter"))
        assert spec.gpus_per_node == 4
        assert spec.world_size == 8
        assert spec.framework is Framework.PYTORCH
        assert spec.strategy is Strategy.DDP

    def test_indivisible_total_rejected(self, profiles):
        p = PartialJobSpec(
            cluster="perlmutter", nodes=2, total_gpus=7,
            framework=Framework.PYTORCH, strategy=Strategy.DDP, entry_script="t.py",
        )
        with pytest.raises(InconsistentTopologyError):
            finalize(p, profiles.resolve("perlmutter"))

    def test_node_limit(self, profiles):
        p = PartialJobSpec(
            cluster="delta", nodes=intent.MAX_NODES, gpus_per_node=4,
            framework=Framework.PYTORCH, strategy=Strategy.DDP, entry_script="t.py",
        )
        assert finalize(p, profiles.resolve("delta")).nodes == intent.MAX_NODES
        p.nodes += 1
        with pytest.raises(InconsistentTopologyError, match="at most 16384 nodes"):
            finalize(p, profiles.resolve("delta"))

    def test_capacity_error_names_limit(self, profiles):
        p = PartialJobSpec(
            cluster="lonestar6", nodes=2, gpus_per_node=4,
            framework=Framework.PYTORCH, strategy=Strategy.DDP, entry_script="t.py",
        )
        with pytest.raises(CapacityError) as exc:
            finalize(p, profiles.resolve("lonestar6"))
        assert exc.value.limit == 3
        assert "3" in str(exc.value)

    def test_missing_fields_raise_incomplete(self, profiles):
        with pytest.raises(IncompleteSpecError) as exc:
            finalize(PartialJobSpec(nodes=2), profiles.resolve("delta"))
        assert exc.value.missing == missing_fields(PartialJobSpec(nodes=2)) == [
            "cluster", "framework", "strategy", "gpus_per_node", "entry_script"]

    def test_port_defaults_and_explicit_flag(self, profiles):
        base = dict(
            cluster="delta", nodes=2, gpus_per_node=4,
            framework=Framework.PYTORCH, strategy=Strategy.DDP, entry_script="t.py",
        )
        spec = finalize(PartialJobSpec(**base), profiles.resolve("delta"))
        assert spec.master_port == 29500 and not spec.master_port_explicit
        spec = finalize(PartialJobSpec(**base, master_port=29999), profiles.resolve("delta"))
        assert spec.master_port == 29999 and spec.master_port_explicit

    def test_launcher_follows_cluster_convention(self, profiles):
        base = dict(
            nodes=2, gpus_per_node=4, framework=Framework.PYTORCH,
            strategy=Strategy.DDP, entry_script="t.py",
        )
        aurora = finalize(PartialJobSpec(cluster="aurora", **base), profiles.resolve("aurora"))
        assert aurora.launcher is Launcher.MPIEXEC
        delta = finalize(PartialJobSpec(cluster="delta", **base), profiles.resolve("delta"))
        assert delta.launcher is Launcher.TORCHRUN

    @staticmethod
    def _old_launcher(framework, default):
        """The launcher choice before LAUNCHER_IMPLIES_FRAMEWORK owned it."""
        launcher = {Framework.DEEPSPEED: Launcher.DEEPSPEED,
                    Framework.ACCELERATE: Launcher.ACCELERATE}.get(framework)
        if launcher is None:
            launcher = default
            if launcher not in (Launcher.TORCHRUN, Launcher.MPIEXEC, Launcher.SRUN):
                launcher = Launcher.TORCHRUN
        return launcher

    @pytest.mark.parametrize("framework", Framework)
    @pytest.mark.parametrize("default", Launcher)
    def test_launcher_choice_is_the_old_rule(self, profiles, framework, default):
        profile = profiles.resolve("delta").replace(default_launcher=default)
        base = dict(cluster="delta", nodes=2, gpus_per_node=4, framework=framework,
                    entry_script="t.py")
        spec = finalize(PartialJobSpec(**base), profile)
        assert spec.launcher is self._old_launcher(framework, default)
        for named in Launcher:
            assert finalize(PartialJobSpec(**base, launcher=named), profile).launcher is named

    @given(nodes=st.integers(1, 16), gpus=st.integers(1, 8))
    def test_world_size_always_consistent(self, nodes, gpus):
        spec = JobSpec(
            cluster="bridges2", framework=Framework.PYTORCH, strategy=Strategy.DDP,
            launcher=Launcher.TORCHRUN, nodes=nodes, gpus_per_node=gpus,
            entry_script="t.py",
        )
        assert spec.world_size == nodes * gpus

    @given(nodes=st.integers(1, 12), total=st.integers(1, 64))
    def test_finalize_never_violates_world_size(self, profiles, nodes, total):
        p = PartialJobSpec(
            cluster="bridges2", nodes=nodes, total_gpus=total,
            framework=Framework.PYTORCH, strategy=Strategy.DDP, entry_script="t.py",
        )
        profile = profiles.resolve("bridges2")
        try:
            spec = finalize(p, profile)
        except (InconsistentTopologyError, CapacityError):
            assert total % nodes != 0 or total // nodes > profile.gpus_per_node
        else:
            assert spec.world_size == total
            assert spec.nodes * spec.gpus_per_node == total

    @given(data=st.data())
    def test_capacity_error_suggests_every_split_that_fits(self, profiles, data):
        profile = data.draw(st.sampled_from(list(profiles)))
        counts = st.none() | st.integers(1, 24)
        p = PartialJobSpec(
            cluster=profile.id, framework=Framework.PYTORCH, strategy=Strategy.DDP,
            entry_script="t.py", nodes=data.draw(counts), gpus_per_node=data.draw(counts),
            total_gpus=data.draw(counts),
        )
        try:
            finalize(p, profile)
        except CapacityError as exc:
            d = derive(p)
            per_node = d.gpus_per_node if d.total_gpus is None else d.total_gpus // d.nodes
            world = d.nodes * per_node
            limit = profile.gpus_per_node
            assert per_node > limit == exc.limit
            assert str(exc).startswith(
                f"{per_node} GPUs per node does not fit on {profile.id} "
                f"(limit {limit}) for world size {world}; try nodes=")
            assert all(n * g == world and g <= limit for n, g in exc.suggestions)
            assert exc.suggestions == sorted(
                exc.suggestions, key=lambda ng: (abs(ng[0] - d.nodes), ng[0]))
            assert {g for _, g in exc.suggestions} == {
                g for g in range(1, limit + 1) if world % g == 0}
        except (IncompleteSpecError, InconsistentTopologyError):
            pass


_LAUNCHER_NAMES = ["torchrun", "deepspeed", "accelerate", "mpiexec", "mpirun", "srun"]


def _check_alone(name, before, after):
    """``_launch`` reads ``name`` between ``before`` and ``after`` exactly when no
    ASCII letter, digit, ``_``, ``.``, ``-`` or non-ASCII character touches it,
    and no ``/`` follows it."""
    apart = set(map(chr, range(128))) - set(string.ascii_letters + string.digits + "_.-")
    alone = before in apart | {""} and after in (apart - {"/"}) | {""}
    launcher = Launcher.MPIEXEC if name.lower() == "mpirun" else Launcher(name.lower())
    assert intent._launch(before + name + after)[0] is (launcher if alone else None)


# The mpiexec/mpirun search _launch made before it read both through _names:
# each name alone, in ASCII letters of either case, searched in the text itself
# (lower() lengthens "İ", so an index in the lowered text could not slice it).
_OLD_ALONE = r"{0}(?<![\w.-]{0}|[^\0-\x7f]{0})(?![\w./-]|[^\0-\x7f])"
_OLD_MPI = [re.compile(_OLD_ALONE.format(name), re.I | re.A) for name in ("mpiexec", "mpirun")]


def _old_mpi_launch(script):
    """What ``_launch`` read for a text naming no other launcher than mpiexec,
    mpirun and srun, by the old patterns; ``None`` where they found neither name."""
    at = _OLD_MPI[0].search(script) or _OLD_MPI[1].search(script)
    if at is None:
        return None
    tail = script[at.start():]
    return Launcher.MPIEXEC, (None, intent._grab(intent._RE_MPI_PPN, tail),
                              intent._grab(intent._RE_MPI_WORLD, tail))


_MPI_NAMES = ["mpiexec", "mpirun", "srun", "mp\u0130exec", "mp\u0131run"]
_MPI_TOKENS = [*_MPI_NAMES, "\u0130", "\u0131", "\u212a", "-n", "-ppn", "-N", "8", "4", "python"]
_MPI_COUNTS = ["", "-n 8", "-n=8 -ppn 4", "-ppn\t4 -n 8", "-N 2 -n 8", "-n8"]


@st.composite
def _mpi_soups(draw):
    """Launcher soups of mpiexec, mpirun and srun in mixed case, beside "İ",
    "ı" and the Kelvin sign: pieces, a run of "İ", a name and its counts, then
    pieces, so counts stand before and after the name."""
    pieces = st.lists(st.tuples(
        st.sampled_from(_MPI_TOKENS), st.sampled_from([" ", "=", "\t", "\n", "", "/", ".", "-"]),
        st.sampled_from([str, str.upper, str.title])), max_size=6)
    parts = [*draw(pieces), ("\u0130" * draw(st.integers(0, 12)), " ", str),
             (draw(st.sampled_from(_MPI_NAMES)), " ", draw(st.sampled_from([str, str.upper]))),
             (draw(st.sampled_from(_MPI_COUNTS)), " ", str), *draw(pieces)]
    return "".join(case(token) + sep for token, sep, case in parts)


@given(_mpi_soups())
@example("\u0130" * 10 + " mpiexec -n 8 -ppn 4 python")
@example("-n 4 \u0130 MPIRUN -ppn 2 -n 8")
@example("mp\u0130exec -n 8 \u212a mpirun -n 2")
def test_mpi_launchers_read_as_the_old_patterns_did(script):
    old = _old_mpi_launch(script)
    if old is None:
        assert intent._launch(script)[0] is not Launcher.MPIEXEC
    else:
        assert intent._launch(script) == old


class TestParseScript:
    def test_reference_slurm_command(self):
        p = parse_script(PERLMUTTER_COMMAND)
        assert p.nodes == 2
        assert p.gpus_per_node == 4
        assert p.launcher is Launcher.TORCHRUN
        assert p.master_port == 29400
        assert p.entry_script == "run_image_classification.py"

    def test_reference_mpiexec_command(self):
        p = parse_script(POLARIS_COMMAND)
        assert p.nodes is None
        assert p.total_gpus == 8
        assert p.gpus_per_node == 4
        assert p.launcher is Launcher.MPIEXEC
        assert p.master_port == 29500
        assert p.entry_script == "run_image_classification.py"
        # The node count falls out when the job description is completed.
        assert derive(p).nodes == 2

    @pytest.mark.parametrize("between", ["\n", "\n# the count\n", "\n  module load x\n"],
                             ids=["newline", "comment", "module"])
    @pytest.mark.parametrize("command, flag, field", [
        ("torchrun --nproc_per_node=4 {} train.py", "--nnodes", "nodes"),
        ("torchrun --nnodes=2 {} train.py", "--nproc_per_node", "gpus_per_node"),
        ("torchrun --nnodes=2 --nproc_per_node=4 {} train.py", "--master_port", "master_port"),
        ("deepspeed --num_gpus=4 {} train.py", "--num_nodes", "nodes"),
        ("deepspeed --num_nodes=2 {} train.py", "--num_gpus", "gpus_per_node"),
        ("accelerate launch --num_processes=8 {} train.py", "--num_machines", "nodes"),
        ("accelerate launch --num_machines=2 {} train.py", "--num_processes", "total_gpus"),
        ("accelerate launch --num_machines=2 {} train.py", "--main_process_port", "master_port"),
        ("mpiexec -ppn 4 {} python train.py", "-n", "total_gpus"),
        ("mpiexec -n 8 {} python train.py", "-ppn", "gpus_per_node"),
        ("mpiexec -n 8 -ppn 4 -genv {} python train.py", "MASTER_PORT", "master_port"),
        ("srun {} bash -c 'torchrun --nproc_per_node=4 train.py'", "-N", "nodes"),
    ])
    def test_a_flag_reads_its_value_from_its_own_line_only(self, command, flag, field, between):
        # The shell runs the next line as another command, which a comment line
        # or a module command between the two does not change.
        value = 29400 if field == "master_port" else 3
        assert getattr(parse_script(command.format(f"{flag} \t{value}")), field) == value
        assert getattr(parse_script(command.format(f"{flag}={value}")), field) == value
        assert getattr(parse_script(command.format(f"{flag}{between}{value}")), field) is None

    def test_non_launch_script_is_empty(self):
        p = parse_script("echo hello")
        assert p == PartialJobSpec()

    def test_deepspeed_command(self):
        p = parse_script(
            "deepspeed --num_nodes=2 --num_gpus=4 --master_port=29501 "
            "--hostfile=hostfile.txt train.py --lr 1e-4 ds_config.json"
        )
        assert p.launcher is Launcher.DEEPSPEED
        assert p.nodes == 2 and p.gpus_per_node == 4
        assert p.master_port == 29501
        assert p.entry_script == "train.py"
        assert p.deepspeed_config == "ds_config.json"
        assert p.train_args == "--lr 1e-4"

    def test_accelerate_command(self):
        p = parse_script(
            "accelerate launch --multi_gpu --num_machines=2 --num_processes=8 "
            "--main_process_port=29400 train.py"
        )
        assert p.launcher is Launcher.ACCELERATE
        assert p.nodes == 2 and p.total_gpus == 8 and p.gpus_per_node == 4
        assert p.master_port == 29400

    def test_trailing_args_recovered(self):
        p = parse_script(PERLMUTTER_COMMAND)
        assert p.train_args == "..."

    @pytest.mark.parametrize("script, args", [
        ("""srun -N 2 bash -c 'torchrun --nnodes=2 train.py --run-name "vit base"'""",
         '--run-name "vit base"'),
        ("srun -N 2 bash -c 'torchrun --nnodes=2 train.py'", ""),
        ('srun -N 2 bash -c "torchrun --nnodes=2 train.py --epochs 3"', "--epochs 3"),
        ('mpiexec -n 8 -ppn 4 python -u "train.py" --epochs 3', "--epochs 3"),
        ("torchrun --nnodes 2 train.py --run-name 'vit base'", "--run-name 'vit base'"),
    ], ids=["balanced-double-quotes", "payload-only", "double-quoted-payload",
            "quoted-entry", "no-payload"])
    def test_only_the_shell_quoting_leaves_the_arguments(self, script, args):
        # Old reading: every quote off both ends, so '--run-name "vit base'.
        assert parse_script(script).train_args == args

    @pytest.mark.parametrize("letter", ["\u0130", "I", "\u0131", "\u212a", "\u017f"])
    def test_mpiexec_counts_after_case_variant_letters(self, letter):
        # lower() turns "İ" into two characters, so an index found in the
        # lowered text once sliced the script short of "-n" and "-ppn".
        text = "echo " + letter * 20 + "\nmpiexec -n 8 -ppn 4 python train.py"
        assert script_topology(text) == (None, 4, 8)
        assert parse_script(text).launcher is Launcher.MPIEXEC

    @pytest.mark.parametrize("script, read", [
        ("module load deepspeed/0.14\naccelerate launch --num_machines=2 --num_processes=8 "
         "--main_process_port=29400 train.py", (Launcher.ACCELERATE, 2, 4, 8, 29400, "")),
        ("# was: torchrun --nnodes=2 train.py\nmpiexec -n 8 -ppn 4 python train.py",
         (Launcher.MPIEXEC, None, 4, 8, None, "")),
        ("module\tload deepspeed\naccelerate launch --num_machines=2 --num_processes=8 train.py",
         (Launcher.ACCELERATE, 2, 4, 8, None, "")),
        ("torchrun --nproc_per_node=4 train.py  # was --nnodes=4",
         (Launcher.TORCHRUN, None, 4, None, None, "")),
        # A "#" inside quotes or inside a word starts no comment.
        ("srun -N 2 bash -c 'torchrun --nproc_per_node=4 train.py --tag #1 --seed=a#2'",
         (Launcher.TORCHRUN, 2, 4, None, None, "--tag #1 --seed=a#2")),
    ], ids=["module-load", "comment", "module-tab", "trailing-comment", "quoted-hash"])
    def test_comment_lines_and_module_commands_are_not_read(self, script, read):
        # The first three were read as the launcher they name, with no counts;
        # the trailing comment's --nnodes was read as the node count.
        p = parse_script(script)
        assert (p.launcher, p.nodes, p.gpus_per_node, p.total_gpus, p.master_port,
                p.train_args) == read
        assert script_topology(script) == (p.nodes, p.gpus_per_node, p.total_gpus)

    def test_only_a_text_with_a_comment_or_module_word_is_filtered(self):
        plain = PERLMUTTER_COMMAND
        assert "#" not in plain and "module" not in plain
        assert intent._commands(plain) is plain
        assert intent._commands("  # x\nmodule purge\n" + plain) == plain

    @pytest.mark.parametrize("word", ["mp\u0130exec", "mp\u0131run"])
    def test_launcher_names_match_ascii_letters_only(self, word):
        # re.I alone would match "İ" and "ı" to "i".
        assert parse_script(f"{word} -n 8 -ppn 4 python train.py") == PartialJobSpec()

    @pytest.mark.parametrize("script, read", [
        # The first two once read as deepspeed and accelerate, with no counts.
        ("mpiexec -n 8 -ppn 4 python -u run_deepspeed_bench.py", (Launcher.MPIEXEC, None, 4, 8)),
        ("mpiexec -n 8 -ppn 4 python -u train.py --output_dir accelerate_out",
         (Launcher.MPIEXEC, None, 4, 8)),
        ("/opt/bin/torchrun --nnodes=2 --nproc_per_node=4 train.py",
         (Launcher.TORCHRUN, 2, 4, None)),
        # A name in a longer word does not outrank the launcher the script runs.
        ("deepspeed --num_nodes 2 --num_gpus 4 train_torchrun.py",
         (Launcher.DEEPSPEED, 2, 4, None)),
        ("accelerate launch --num_machines 2 --num_processes 8 train.py --config deepspeed-z3.yaml",
         (Launcher.ACCELERATE, 2, 4, 8)),
        ("mpiexec -n 8 -ppn 4 python -u /home/u/accelerate/train.py",
         (Launcher.MPIEXEC, None, 4, 8)),
        ("srun -N 2 python -u train.py --tag mpirun.v2", (Launcher.SRUN, 2, None, None)),
        ("srun -N 2 /opt/bin/torchrun --nnodes=2 --nproc_per_node=4 train.py",
         (Launcher.TORCHRUN, 2, 4, None)),
    ])
    def test_the_launcher_is_a_name_that_stands_alone(self, script, read):
        p = parse_script(script)
        assert (p.launcher, p.nodes, p.gpus_per_node, p.total_gpus) == read

    def test_a_launcher_name_counts_only_where_it_stands_alone(self):
        neighbours = ["", " ", "\t", "/", ".", "_", "-", "=", "'", "(", "a", "Z", "0", "\u00e9",
                      "\u0130", "\u212a", "\u017f"]
        for name, case, before, after in itertools.product(
                _LAUNCHER_NAMES, (str.lower, str.upper, str.title), neighbours, neighbours):
            _check_alone(case(name), before, after)

    @given(st.sampled_from(_LAUNCHER_NAMES), st.characters(), st.characters())
    def test_a_launcher_name_beside_any_character(self, name, before, after):
        _check_alone(name, before, after)

    def test_every_template_reads_its_launcher_beside_names_in_longer_words(
        self, profiles, templates,
    ):
        assert len(templates) == 35
        for t in templates:
            profile = profiles.resolve(t.cluster)
            spec = make_spec(profile, t.framework, t.strategy, launcher=t.launcher)
            plain = render_for_spec(spec, t, profile)
            named = render_for_spec(spec.replace(
                entry_script="run_deepspeed_mpiexec_bench.py",
                train_args="--output_dir accelerate_out --log srun.log --cfg torchrun.yaml",
            ), t, profile)
            nodes, per_node, total = plain.topology
            assert nodes in (None, spec.nodes) and per_node in (None, spec.gpus_per_node)
            assert total in (None, spec.world_size) and plain.topology != (None, None, None)
            for script in (plain, named):
                assert intent._launch(script._commands) == (t.launcher, plain.topology), t.id


# Launcher words, their count and port flags, near misses and the mock's needles.
_LAUNCH_TOKENS = [
    "torchrun", "deepspeed", "accelerate", "launch", "mpiexec", "mpirun", "srun", "bash -c",
    "python", "-u", "--nnodes", "--nproc_per_node", "--nproc-per-node", "--master_port",
    "--master-port", "MASTER_PORT", "-genv", "--num_machines", "--num-machines",
    "--num_processes", "--main_process_port", "--num_nodes", "--num_gpus", "slots=", "-N",
    "-n", "-ppn", "--", "0", "1", "2", "4", "8", "29500", "65536", "9" * 30, "train.py",
    "ds.json", "İ", "ſ", "#", "module load", " module", "export PYTHONPATH", "HF_TOKEN",
    "meta-llama", "accelerate launch",
]


@st.composite
def _launch_soups(draw):
    parts = draw(st.lists(
        st.tuples(st.sampled_from(_LAUNCH_TOKENS), st.sampled_from([" ", "=", "\n", "", "'"]),
                  st.sampled_from([str, str.upper])),
        max_size=16,
    ))
    return "".join(case(token) + sep for token, sep, case in parts)


def script_topology(text):
    """The counts a ``RenderedScript`` keeps: the launcher's, read from its commands."""
    return intent._launch(intent._commands(text))[1]


def _parsed_counts(text):
    p = parse_script(text)
    return p.nodes, p.gpus_per_node, p.total_gpus


class TestScriptTopology:
    """A ``RenderedScript`` reads the counts ``parse_script`` reads."""

    @given(st.text() | _launch_soups())
    @example(_HUGE_COUNT_SCRIPTS[0])
    @example(_HUGE_COUNT_SCRIPTS[1])
    @example(PERLMUTTER_COMMAND)
    @example(POLARIS_COMMAND)
    @example("srun -N 2 python train.py")  # the srun-only branch, on every run
    def test_agrees_with_parse_script(self, text):
        assert script_topology(text) == _parsed_counts(text)

    def test_every_golden_final_script(self):
        from golden import regen

        scripts = ["\n".join(attempt["script"])
                   for entry in json.loads(regen.PIPELINE.read_text("utf-8"))
                   for attempt in entry["attempts"] if "script" in attempt]
        assert len(scripts) >= 44
        for text in scripts:
            assert script_topology(text) == _parsed_counts(text), text


# What a drawn script may gain that it does not run: a comment line or a
# `module` command between its lines, or a comment after one of its lines.
_COMMENT_LINES = st.sampled_from(["#", "# was: torchrun --nnodes=9 --master_port=99999",
                                  "  #deepspeed --num_gpus=7", "\t# export PYTHONPATH='x"])
_MODULE_COMMANDS = st.sampled_from(["module load deepspeed/0.14", "  module swap mpirun srun",
                                    "module\tload accelerate", "\tmodule\tpurge"])
_TRAILING_COMMENTS = st.tuples(st.sampled_from([" #", " # ", "\t#"]), _launch_soups().map(
    lambda soup: soup.replace("\n", " "))).map("".join)


@st.composite
def _unread_additions(draw):
    """``(script, edited, kind)``: a launch soup, and the same soup with one
    addition of ``kind`` that the shell does not run."""
    lines = draw(_launch_soups()).split("\n")
    kind = draw(st.sampled_from(["comment", "module", "trailing"]))
    if kind == "trailing":
        # Only where the quotes before it on its line are closed.
        closed = [i for i, line in enumerate(lines)
                  if not line.count("'") % 2 and not line.count('"') % 2]
        assume(closed)
        at = draw(st.sampled_from(closed))
        edited = lines[:at] + [lines[at] + draw(_TRAILING_COMMENTS)] + lines[at + 1:]
    else:
        at = draw(st.integers(0, len(lines)))
        added = draw(_COMMENT_LINES if kind == "comment" else _MODULE_COMMANDS)
        edited = lines[:at] + [added] + lines[at:]
    return "\n".join(lines), "\n".join(edited), kind


class TestOneReading:
    """A line the shell does not run changes no reader's result."""

    @pytest.fixture(scope="class")
    def needle_rules(self, fault_rules):
        """One rule set per needle of the bundled rules, keyed by its atom and
        needle: one deltaai rule that fires when a script holds the needle
        (``script_contains``) or lacks it (``script_lacks``)."""
        needles = {(atom, needle) for rule in fault_rules
                   for atom in ("script_contains", "script_lacks")
                   for needle in rule.trigger.get(atom, [])}
        return {(atom, needle): load_fault_rules(json.dumps([{
            "id": "NEEDLE", "cluster": "deltaai", "trigger": {atom: [needle]}, "stderr": "x",
            "clearable_by": []}])) for atom, needle in sorted(needles)}

    @given(_unread_additions())
    @example(("torchrun --nproc_per_node=4 train.py",
              "torchrun --nproc_per_node=4 train.py  # was --nnodes=4 --master_port=99999",
              "trailing"))
    def test_an_unrun_addition_changes_no_read(self, profiles, needle_rules, drawn):
        script, edited, kind = drawn
        assert intent._launch(intent._commands(edited)) == intent._launch(intent._commands(script))
        assert parse_script(edited) == parse_script(script)
        for cluster in ("deltaai", "aurora"):
            profile = profiles.resolve(cluster)
            spec = make_spec(profile, Framework.PYTORCH, Strategy.DDP, nodes=2)
            assert (lint(RenderedScript(edited, "t"), spec, profile)
                    == lint(RenderedScript(script, "t"), spec, profile))
        profile = profiles.resolve("deltaai")
        spec = make_spec(profile, Framework.PYTORCH, Strategy.DDP, nodes=2)
        for (atom, needle), rules in needle_rules.items():
            if kind == "module" and needle == "module load":
                continue  # the mock reads module commands: only this needle may change
            fired = [submit(RenderedScript(text, "t"), spec, profile, rules).fault_fired
                     for text in (script, edited)]
            assert fired[0] == fired[1], (atom, needle)


# The entry-script search parse_script ran before it read paths by str.find.
_ANY_PY = re.compile(r"(?<![\w/.-])([\w./-]+\.py)\b")
_PY_PATH = re.compile(intent._PY + r"\b")


class TestFirstPath:
    """``intent._first_path`` finds the path the old search found, where it found it."""

    @given(st.text() | st.text("ab./-_ py.pyc x\n'\"=$\u00e9\u01300", max_size=60))
    @example(".pyc")
    @example("a.pyc/b.py")
    @example("x.py.py")
    @example("python 'scripts/train.py' --lr 1")
    @example('python "my dir/train.py"')
    @example("run .py then ./.py and a/.py")
    def test_agrees_with_the_search(self, text):
        old = _ANY_PY.search(text)
        new = intent._first_path(text, ".py", _PY_PATH)
        assert (new and (new.start(), new[0])) == (old and (old.start(1), old[1]))

    def test_parse_script_reads_the_found_entry_and_what_follows(self):
        p = parse_script("torchrun --nnodes=2 x.pyc a.pyc/b.py --lr 1")
        assert (p.entry_script, p.train_args) == ("a.pyc/b.py", "--lr 1")


class TestRoundTripFixedPoint:
    def test_finalize_of_parsed_render_is_identity(self, profiles, templates):
        """Rendering a job and re-reading the script reproduces the job.

        Holds for every verified bundled template on (nodes, gpus_per_node,
        world_size, master_port, entry_script).
        """
        from launchport.synthesis import render_for_spec
        from conftest import make_spec

        for template in templates:
            if not template.verified:
                continue
            profile = profiles.resolve(template.cluster)
            spec = make_spec(
                profile, template.framework, template.strategy,
                launcher=template.launcher, nodes=2,
                gpus_per_node=profile.gpus_per_node,
                master_port=29765, master_port_explicit=True,
                entry_script="train.py",
            )
            rendered = render_for_spec(spec, template, profile)
            recovered = parse_script(rendered.text)
            recovered.cluster = profile.id
            final = finalize(recovered, profile)
            assert final.nodes == spec.nodes, template.id
            assert final.gpus_per_node == spec.gpus_per_node, template.id
            assert final.world_size == spec.world_size, template.id
            assert final.master_port == spec.master_port, template.id
            assert final.entry_script == spec.entry_script, template.id


# The patterns intent compiles on first use, by name.
_DEFERRED = {"PORT_FLAG_RE", "_RE_NNODES", "_RE_NPROC", "_RE_NUM_MACHINES", "_RE_NUM_PROCESSES",
             "_RE_NUM_NODES", "_RE_NUM_GPUS", "_RE_SLOTS", "_RE_SRUN_N_UPPER", "_RE_MPI_WORLD",
             "_RE_MPI_PPN", "_PATH_RUN", "_PY_PATH", "_TRAILING_JSON"}
# Every first-use pattern of intent and prose: the module-level ones and the phrases.
_LAZY = [*(value for module in (intent, prose) for value in vars(module).values()
           if isinstance(value, intent._LazyPattern)),
         *prose._PHRASES.values(), *(phrase for _, phrase in prose._FOUND)]
# Pieces of launch scripts and job descriptions, so drawn text reaches the patterns.
_PIECES = ("torchrun", "--nnodes=2", "--nproc_per_node 4", "srun -N 2", "mpiexec", "MPIRUN",
           "-n 8", "-ppn\t4", "slots=4", "--num_machines=2", "--num-processes 8",
           "--num_nodes 1", "--num_gpus=4", "--master_port=29500", "MASTER_PORT 1",
           "--main_process_port 2", "train.py", "a/b.py", "ds.json'", "config c.json",
           "two nodes", "8 gpus per node", "twenty one gpus each", "port 29500", "run t.py",
           "python -u x.py", "arguments are --lr 1", "deepspeed launcher", "accelerate launch",
           "acc-ddp", "fully sharded", "zero 3", "data parallel", "a total of", "per node gpus: 4",
           "single node", "across", "\n", " ", "'", "İ", "-")


def test_the_deferred_patterns_are_the_named_ones():
    assert {name for name, value in vars(intent).items()
            if isinstance(value, intent._LazyPattern)} == _DEFERRED


def test_launch_flag_patterns_compile_on_first_use():
    # A fresh interpreter compiles none of them at import; reading a torchrun
    # script compiles only torchrun's count patterns.
    code = (
        "import re\n"
        "import launchport.intent as i\n"
        "def compiled():\n"
        "    return sorted(name for name, value in vars(i).items()\n"
        "                  if isinstance(value, i._LazyPattern)\n"
        "                  and isinstance(value.search.__self__, re.Pattern))\n"
        "print(compiled())\n"
        "launcher, counts = i._launch('torchrun --nnodes=2 --nproc_per_node=4 train.py')\n"
        "assert (launcher.value, counts) == ('torchrun', (2, 4, None))\n"
        "print(compiled())\n"
        "i._launch('torchrun --nproc_per_node=4 train.py')\n"
        "print(compiled())\n"
    )
    src = str(Path(intent.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True, env=dict(os.environ, PYTHONPATH=src))
    assert done.stdout.splitlines() == [
        "[]", "['_RE_NNODES', '_RE_NPROC']", "['_RE_NNODES', '_RE_NPROC', '_RE_SRUN_N_UPPER']"]


def _read(m: re.Match | None):
    return m and (m.span(), m.groups(), m.lastgroup)


@given(st.lists(st.sampled_from(_PIECES), max_size=12).map("".join) | st.text(max_size=40),
       st.integers(0, 40))
@example("srun -N 2 MPIRUN -n 8 MPIEXEC -ppn 4 python train.py", 0)  # re.I reads these
def test_a_deferred_pattern_reads_what_its_compiled_pattern_reads(text, pos):
    # Each pattern as the modules hold it, and fresh ones whose first call is
    # a search or a match, so both first uses and the compiled calls are read.
    for pattern in _LAZY:
        compiled = re.compile(pattern.source, pattern.flags)
        searched = intent._LazyPattern(pattern.source, pattern.flags)
        matched = intent._LazyPattern(pattern.source, pattern.flags)
        assert _read(searched.search(text)) == _read(compiled.search(text)), pattern.source
        assert _read(matched.match(text, pos)) == _read(compiled.match(text, pos)), pattern.source
        for lazy in (pattern, searched, matched):
            assert _read(lazy.search(text)) == _read(compiled.search(text)), pattern.source
            assert _read(lazy.match(text, pos)) == _read(compiled.match(text, pos)), pattern.source
