"""The default bundles and extractor are built once per process."""

import pytest

from launchport import bridge, clusters, prose, repair, simcluster, templates

LOADERS = (
    clusters.default_profiles,
    templates.default_templates,
    simcluster.default_fault_rules,
    repair.default_fingerprints,
    repair.default_repair_table,
    bridge._bundled_prompts,
)


@pytest.mark.parametrize("loader", LOADERS, ids=lambda loader: loader.__name__)
def test_default_bundle_is_shared(loader):
    assert loader() is loader()


def test_extract_reuses_one_default_extractor(monkeypatch):
    built = []
    init = prose.RuleBasedExtractor.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(prose.RuleBasedExtractor, "__init__", counting_init)
    prose.extract("train on 2 nodes on Perlmutter")
    prose.extract("train on 4 nodes on Polaris")
    assert len(built) <= 1
