import json

import pytest

from launchport.clusters import MAX_GPUS_PER_NODE, load_profiles
from launchport.documents import bundled
from launchport.errors import ProfileParseError, RegistryConflictError, UnknownClusterError
from launchport.types import Scheduler


def test_default_bundle_has_nine_profiles(profiles):
    assert len(profiles) == 9
    assert set(profiles.ids()) == {
        "lonestar6", "perlmutter", "stampede3", "vista", "aurora",
        "delta", "deltaai", "anvil", "bridges2",
    }


def test_bundle_gpu_counts(profiles):
    assert profiles.resolve("perlmutter").gpus_per_node == 4
    assert profiles.resolve("lonestar6").gpus_per_node == 3


def test_bundle_cluster_facts(profiles):
    assert profiles.resolve("aurora").scheduler is Scheduler.PBS
    assert profiles.resolve("perlmutter").scheduler is Scheduler.SLURM
    assert profiles.resolve("deltaai").env_propagation is False
    assert all(p.env_propagation for p in profiles if p.id != "deltaai")


def test_membership_is_by_id(profiles):
    # Without __contains__, `in` would compare ids with the profiles iterated.
    assert "perlmutter" in profiles
    assert "pm" not in profiles  # an alias, not an id
    assert "nowhere" not in profiles


def test_empty_document_yields_empty_set():
    assert len(load_profiles("[]")) == 0
    assert len(load_profiles("")) == 0


def test_resolve_alias(profiles):
    assert profiles.resolve("LS6").id == "lonestar6"
    assert profiles.resolve("perlmutter").id == "perlmutter"
    assert profiles.resolve("Polaris").id == "aurora"


def test_resolve_unknown_lists_valid_ids(profiles):
    with pytest.raises(UnknownClusterError) as exc:
        profiles.resolve("frontier")
    assert "frontier" in str(exc.value)
    assert "perlmutter" in str(exc.value)


def test_resolve_is_exact_not_prefix(profiles):
    with pytest.raises(UnknownClusterError):
        profiles.resolve("perl")


def test_resolve_total_over_registry(profiles):
    for cluster_id in profiles.ids():
        assert profiles.resolve(cluster_id).id == cluster_id
        assert profiles.resolve(cluster_id.upper()).id == cluster_id


def test_resolve_is_deterministic(profiles):
    results = {profiles.resolve("ls6").id for _ in range(50)}
    assert results == {"lonestar6"}


def _record(**overrides):
    base = {
        "id": "testbox",
        "aliases": [],
        "scheduler": "slurm",
        "default_launcher": "torchrun",
        "gpus_per_node": 4,
        "gpu_type": "A100",
        "env_propagation": True,
    }
    base.update(overrides)
    return base


def test_duplicate_id_conflict_names_both():
    doc = json.dumps([_record(), _record(gpu_type="H100")])
    with pytest.raises(RegistryConflictError) as exc:
        load_profiles(doc)
    assert "testbox" in str(exc.value)


def test_alias_colliding_with_id_is_rejected():
    doc = json.dumps([_record(), _record(id="other", aliases=["testbox"])])
    with pytest.raises(RegistryConflictError):
        load_profiles(doc)


def test_missing_field_names_record_and_field():
    record = _record()
    del record["scheduler"]
    with pytest.raises(ProfileParseError) as exc:
        load_profiles(json.dumps([record]))
    assert exc.value.field == "scheduler"
    assert exc.value.record == 0


def test_bad_enum_value_is_parse_error():
    with pytest.raises(ProfileParseError):
        load_profiles(json.dumps([_record(scheduler="cobalt")]))


def test_nonpositive_counts_rejected():
    with pytest.raises(ProfileParseError):
        load_profiles(json.dumps([_record(gpus_per_node=0)]))
    [profile] = load_profiles(json.dumps([_record(gpus_per_node=1)]))
    assert profile.gpus_per_node == 1


def test_gpus_per_node_is_bounded(profiles):
    assert load_profiles(json.dumps([_record(gpus_per_node=MAX_GPUS_PER_NODE)]))
    with pytest.raises(ProfileParseError) as exc:
        load_profiles(json.dumps([_record(gpus_per_node=MAX_GPUS_PER_NODE + 1)]))
    assert exc.value.field == "gpus_per_node"
    assert str(MAX_GPUS_PER_NODE) in str(exc.value)
    assert max(p.gpus_per_node for p in profiles) <= MAX_GPUS_PER_NODE


def test_invalid_json_reports_line():
    with pytest.raises(ProfileParseError) as exc:
        load_profiles("[{,]")
    assert "line" in str(exc.value)


@pytest.mark.parametrize("field", ["aliases"])
@pytest.mark.parametrize("value", ["zq", ["zq", 5], {"zq": 1}, None],
                         ids=["string", "non-string-entry", "object", "null"])
def test_name_lists_must_be_lists_of_strings(field, value):
    with pytest.raises(ProfileParseError) as exc:
        load_profiles(json.dumps([_record(**{field: value})]))
    assert exc.value.record == 0
    assert exc.value.field == field


def test_string_aliases_register_no_one_letter_names():
    # "zq" once registered the aliases "z" and "q".
    with pytest.raises(ProfileParseError, match="list of strings"):
        load_profiles(json.dumps([_record(aliases="zq")]))


def test_bundle_name_lists_load_as_written(profiles):
    records = {r["id"]: r for r in json.loads(bundled("clusters.json"))}
    assert sorted(records) == sorted(profiles.ids())
    for profile in profiles:
        record = records[profile.id]
        assert profile.aliases == tuple(a.lower() for a in record.get("aliases", []))
