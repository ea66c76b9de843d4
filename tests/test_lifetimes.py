"""The data of one label lives only while that label's checks run.

`verify.checks_for_label` releases the label-keyed caches when a label's
checks end; everything derived from a datum is kept on the datum, so it goes
with it.  The cone memos keyed by the restricted Cartan matrix stay.
"""

import gc
import types
import weakref
from collections import Counter

from conicfans import conicatlas, fixtures, lunavust, rootcore, symdata, verify

LABELS = fixtures.supported_labels(8)


def _release_label_caches():
    for cache in verify._LABEL_CACHES:
        cache.cache_clear()


def test_a_labels_data_dies_with_its_checks(monkeypatch):
    _release_label_caches()
    made = []

    def track(self):   # (class, cartan or label, weak reference) of each new object
        made.append((type(self).__name__, getattr(self, "cartan", None) or self.label,
                     weakref.ref(self)))

    monkeypatch.setattr(rootcore.RootDatum, "__post_init__", track, raising=False)
    monkeypatch.setattr(conicatlas.ConicAtlasEntry, "__post_init__", track, raising=False)
    monkeypatch.setattr(lunavust, "_faces_memo", {})
    verify.run_checks(jobs=1)
    gc.collect()
    kinds = {(kind, key) for kind, key, _ in made}
    for label in LABELS:
        series, rank = conicatlas.parse_label(label)
        assert ("RootDatum", rootcore.simple_cartan(series, rank)) in kinds
        assert ("ConicAtlasEntry", label) in kinds
    assert [(kind, key) for kind, key, ref in made if ref() is not None] == []
    restricted_types = (("B", 3), ("B", 4), ("D", 4), ("F", 4), ("G", 2))
    assert set(lunavust._faces_memo) == {rootcore.simple_cartan(*t) for t in restricted_types}


def test_no_label_builds_its_data_twice(monkeypatch):
    built = Counter()

    def counting(kind, fn, key=lambda *args: None):
        def count(*args):
            built[kind, key(*args)] += 1
            return fn(*args)
        return count

    # _validate_datum runs once for each datum that build_root_datum builds
    monkeypatch.setattr(rootcore, "_validate_datum",
                        counting("datum", rootcore._validate_datum,
                                 lambda rd, series, rank: (series, rank)))
    monkeypatch.setattr(symdata, "_check_projected_roots",
                        counting("restricted", symdata._check_projected_roots))
    monkeypatch.setattr(conicatlas, "_build_entry", counting("entry", conicatlas._build_entry))
    golden = verify.load_golden()
    _release_label_caches()
    for label in LABELS:
        built.clear()
        assert all(r.ok for r in verify.checks_for_label(label, "all", golden))
        series, rank = conicatlas.parse_label(label)
        assert built["datum", (series, rank)] == 1
        assert built["restricted", None] == built["entry", None] == 1
        assert set(built.values()) == {1}


def test_the_ruzzi_search_leaves_no_reference_cycle():
    """`ruzzi_smooth` on every pinned Hilbert cone frees all it makes by
    reference counting: a collection that saves what it frees finds no
    function, such as a recursive closure, among it."""
    cones = []
    for label in LABELS:
        rrd = symdata.restricted_datum(symdata.satake_of(*conicatlas.parse_label(label)))
        cones += [(conicatlas.resolve_cone(rrd, syms, colors), rrd)
                  for syms, colors in fixtures.HILB_CONES[rrd.restricted.label]]
    assert len(cones) == 28
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        assert all(lunavust.ruzzi_smooth(cc, rrd).smooth for cc, rrd in cones)
        gc.collect()
        left = [obj for obj in gc.garbage if isinstance(obj, types.FunctionType)]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    assert left == []
