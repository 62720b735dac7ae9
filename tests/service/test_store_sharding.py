"""FLAT -> sharded store migration: idempotence, conflicts, stats.

A store written before hash-prefix sharding keeps every artifact at the
cache root.  Opening such a store must move each artifact into its
``key[:2]`` shard exactly once, resolve flat/sharded duplicates in
favour of the sharded copy, and keep serving either layout — so a
half-migrated (e.g. read-only) store never loses data.
"""

import json

from repro.core import CompilerOptions, GemmSpec
from repro.core.pipeline import GemmCompiler
from repro.service.store import ArtifactStore, shard_for
from repro.sunway.arch import TOY_ARCH


def compiled_program(**options):
    return GemmCompiler(TOY_ARCH, CompilerOptions(**options)).compile(GemmSpec())


def flat_path(root, key):
    return root / f"{key}.json"


def build_flat_store(root, keys_programs):
    """Lay artifacts out the pre-sharding way: straight at the root."""
    root.mkdir(parents=True, exist_ok=True)
    for key, program in keys_programs:
        payload = {
            "key": key,
            "created": 0.0,
            "codegen_seconds": program.codegen_seconds,
            "variant": program.options.variant_name(),
            "program": program.to_dict(),
        }
        flat_path(root, key).write_text(json.dumps(payload))


def test_shard_for_uses_hex_prefix_with_fallback():
    assert shard_for("ca7382" + "0" * 58) == "ca"
    assert shard_for("AB" + "0" * 62) == "ab"
    # Degenerate keys (test doubles, hand-rolled names) share one shard.
    assert shard_for("not-a-hash") == "__"
    assert shard_for("f") == "__"


def test_open_migrates_flat_store_into_shards(tmp_path):
    program = compiled_program()
    keys = ["aa" + "0" * 62, "ab" + "1" * 62, "aa" + "2" * 62]
    build_flat_store(tmp_path, [(k, program) for k in keys])

    store = ArtifactStore(tmp_path)
    assert store.migrated == 3
    for key in keys:
        assert not flat_path(tmp_path, key).exists()
        assert (tmp_path / shard_for(key) / f"{key}.json").exists()
        assert store.get(key) is not None
    assert store.shard_counts() == {"aa": 2, "ab": 1}


def test_migration_is_idempotent(tmp_path):
    key = "cd" + "3" * 62
    build_flat_store(tmp_path, [(key, compiled_program())])
    first = ArtifactStore(tmp_path)
    assert first.migrated == 1
    # Re-opening the (now sharded) store finds nothing flat to move.
    second = ArtifactStore(tmp_path)
    assert second.migrated == 0
    assert second.get(key) is not None
    # The persistent counter records the one real migration only.
    assert second.load_persistent_stats().get("migrated") == 1


def test_flat_and_sharded_duplicate_resolves_to_sharded(tmp_path):
    key = "ef" + "4" * 62
    program = compiled_program()
    store = ArtifactStore(tmp_path)
    sharded = store.put(key, program)
    marker = json.loads(sharded.read_text())
    # A stale flat copy reappears (old binary raced the migration).
    build_flat_store(tmp_path, [(key, program)])
    reopened = ArtifactStore(tmp_path)
    # The duplicate is counted as handled, the flat copy is gone, and
    # the sharded artifact is untouched (same bytes, not re-written).
    assert reopened.migrated == 1
    assert not flat_path(tmp_path, key).exists()
    assert json.loads(sharded.read_text()) == marker
    assert reopened.get(key) is not None


def test_unmigrated_flat_artifact_still_served_and_listed(tmp_path):
    """If migration cannot move a file, get()/keys() still see it."""
    store = ArtifactStore(tmp_path)
    key = "0d" + "5" * 62
    build_flat_store(tmp_path, [(key, compiled_program())])
    # No re-open (no migration ran): the flat fallback path serves it.
    assert store.get(key) is not None
    assert key in store.keys()
    assert store.shard_counts() == {"(flat)": 1}


def test_stats_report_shard_layout(tmp_path):
    store = ArtifactStore(tmp_path)
    program = compiled_program()
    for key in ("11" + "a" * 62, "11" + "b" * 62, "22" + "c" * 62):
        store.put(key, program)
    stats = store.stats()
    assert stats["artifacts"] == 3
    assert stats["shards"] == 2
    assert stats["per_shard"] == {"11": 2, "22": 1}
    assert stats["migrated"] == 0


def test_clear_removes_artifacts_and_empty_shards(tmp_path):
    store = ArtifactStore(tmp_path)
    keys = ["33" + "d" * 62, "44" + "e" * 62]
    for key in keys:
        store.put(key, compiled_program())
    assert store.clear() == 2
    assert store.keys() == []
    for key in keys:
        assert not (tmp_path / shard_for(key)).exists()


def test_stats_json_never_migrated_as_artifact(tmp_path):
    store = ArtifactStore(tmp_path)
    store.bump_persistent_stats({"hits": 1})
    reopened = ArtifactStore(tmp_path)
    assert reopened.migrated == 0
    assert (tmp_path / "stats.json").exists()
