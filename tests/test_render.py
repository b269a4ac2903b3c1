from catgeo import (
    atomic_basis,
    build_free,
    build_thin,
    builtin_category,
    compute_norms,
    export_dot,
    export_embedding,
)


class TestEmbedding:
    def test_po6_layout(self):
        cat = builtin_category("po6")
        emb = export_embedding(cat)
        assert len(emb.points) == 6
        assert len(emb.arcs) == 13

    def test_point_injectivity(self):
        cat = builtin_category("po6")
        emb = export_embedding(cat)
        points = list(emb.points.values())
        for i, (x1, y1, _) in enumerate(points):
            for x2, y2, _ in points[i + 1 :]:
                assert (x1 - x2) ** 2 + (y1 - y2) ** 2 > 0

    def test_points_lie_in_plane(self):
        emb = export_embedding(builtin_category("po6"))
        assert all(p[2] == 0.0 for p in emb.points.values())

    def test_arc_interiors_leave_plane(self):
        cat = builtin_category("po6")
        emb = export_embedding(cat)
        for arrow_id, line in emb.arcs.items():
            arrow = cat.arrow(arrow_id)
            assert line[0] == emb.points[arrow.dom]
            assert line[-1] == emb.points[arrow.cod]
            for point in line[1:-1]:
                assert point[2] != 0.0

    def test_single_object(self):
        emb = export_embedding(build_thin(["a"], []))
        assert len(emb.points) == 1
        assert emb.arcs == {}

    def test_parallel_arrows_get_disjoint_interiors(self):
        cat = build_free(["a", "b"], [("u", "a", "b"), ("v", "a", "b")])
        emb = export_embedding(cat)
        interior_u = set(emb.arcs["u"][1:-1])
        interior_v = set(emb.arcs["v"][1:-1])
        assert not interior_u & interior_v


class TestDot:
    def test_po6_full(self):
        cat = builtin_category("po6")
        text = export_dot(cat)
        assert text.startswith("digraph")
        assert text.rstrip().endswith("}")
        assert text.count('" -> "') == 13

    def test_po6_basis_only(self):
        cat = builtin_category("po6")
        basis = atomic_basis(cat)
        text = export_dot(cat, arrows=basis)
        assert text.count('" -> "') == 6

    def test_only_the_given_arrows_are_drawn(self):
        cat = builtin_category("po6")
        text = export_dot(cat, arrows=["e6", "a0->a5"])
        edges = [line for line in text.splitlines() if '" -> "' in line]
        assert edges == ['  "a0" -> "a5" [label="a0->a5"];', '  "a4" -> "a5" [label="e6"];']
        assert export_dot(cat, arrows=[]).count('" -> "') == 0
        assert export_dot(cat, arrows=None) == export_dot(cat)

    def test_empty_category(self):
        text = export_dot(build_thin(["a"], []))
        assert text.count('" -> "') == 0

    def test_norm_labels(self):
        cat = builtin_category("po6")
        norms = compute_norms(cat, atomic_basis(cat))
        text = export_dot(cat, norms=norms)
        assert 'label="a0->a5 (3)"' in text
