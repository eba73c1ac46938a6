"""Tensor substrate: the softmax, where a slot is masked out by a logit of
-inf, the tiled block attention core and its VJP, and the k x k window
neighborhood that local attention reads (padded sliding windows, with
out-of-image slots marked by window_validity)."""

import numpy as np
import pytest

from localattn.errors import DegenerateGroupError, DimensionError, UnsupportedExtentError
from localattn.tensorops import (TILE_BYTES, block_attention, block_attention_vjp, pad_hw,
                                 sliding_windows, softmax_axis, softmax_vjp, window_slices,
                                 window_validity)


def _in_image(i, j, u, v, k, height, width):
    """Direct bounds test for slot (u, v) of the window centered on (i, j)."""
    r, c = i - k // 2 + u, j - k // 2 + v
    return 0 <= r < height and 0 <= c < width


class TestSoftmaxAxis:
    def test_uniform_logits_give_uniform_weights(self):
        np.testing.assert_allclose(softmax_axis(np.zeros(3), -1),
                                   np.full(3, 1.0 / 3.0), atol=1e-15)

    def test_integer_logits_give_float64_weights(self):
        out = softmax_axis(np.array([[0, 0], [0, 1]]), -1)
        assert out.dtype == np.float64
        np.testing.assert_allclose(out[0], [0.5, 0.5], atol=1e-15)

    def test_stable_under_large_logits(self):
        out = softmax_axis(np.array([1000.0, 0.0]), -1)
        np.testing.assert_allclose(out, [1.0, 0.0], atol=1e-12)

    def test_masked_two_way_closed_form(self):
        out = softmax_axis(np.array([1.0, -np.inf, 3.0]), -1)
        e2 = np.e ** 2
        np.testing.assert_allclose(out, [1 / (1 + e2), 0.0, e2 / (1 + e2)],
                                   atol=1e-12)

    def test_masked_slots_exactly_zero(self):
        rng = np.random.default_rng(2)
        logits = rng.standard_normal((4, 6))
        mask = rng.random((4, 6)) < 0.6
        mask[:, 0] = True
        logits[~mask] = -np.inf
        out = softmax_axis(logits, -1)
        assert np.all(out[~mask] == 0.0)
        np.testing.assert_allclose(out.sum(-1), 1.0, atol=1e-6)
        assert np.all(out >= 0.0)

    def test_invariant_to_constant_shift(self):
        rng = np.random.default_rng(3)
        logits = rng.standard_normal((3, 5)) * 10
        base = softmax_axis(logits, -1)
        shifted = softmax_axis(logits + 123.456, -1)
        assert np.max(np.abs(base - shifted)) < 1e-9

    def test_axis_argument_applies_along_that_axis(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((3, 4, 5))
        np.testing.assert_allclose(softmax_axis(x, 1).sum(axis=1), 1.0, atol=1e-6)

    def test_all_masked_group_raises(self):
        logits = np.array([[0.0, 0.0], [-np.inf, -np.inf]])
        with pytest.raises(DegenerateGroupError):
            softmax_axis(logits, -1)

    @pytest.mark.parametrize("row", [[np.inf, 0.0], [np.nan, 0.0], [-np.inf, -np.inf]],
                             ids=["pos-inf", "nan", "all-neg-inf"])
    def test_non_finite_logits_in_a_valid_group_are_named(self, row):
        logits = np.array([[0.0, 1.0], row])
        with pytest.raises(DegenerateGroupError, match="non-finite logits"):
            softmax_axis(logits, -1)


def _masked_middle_axis_logits(seed):
    """(3, 5, 4) logits whose groups run over the middle axis, with about
    half the slots set to -inf and slot 0 of every group kept."""
    rng = np.random.default_rng(seed)
    logits = rng.standard_normal((3, 5, 4)) * 3
    keep = rng.random((3, 5, 4)) < 0.5
    keep[:, 0] = True
    logits[~keep] = -np.inf
    return logits, keep


class TestSoftmaxMiddleAxis:
    def test_masked_slots_exactly_zero(self):
        logits, keep = _masked_middle_axis_logits(6)
        out = softmax_axis(logits, -2)
        assert np.all(out[~keep] == 0.0)
        np.testing.assert_allclose(out.sum(axis=-2), 1.0, atol=1e-12)
        want = softmax_axis(np.swapaxes(logits, -2, -1).copy(), -1)
        np.testing.assert_allclose(out, np.swapaxes(want, -2, -1), rtol=0, atol=1e-15)

    def test_degenerate_group_raises(self):
        logits, _ = _masked_middle_axis_logits(7)
        logits[1, :, 2] = -np.inf
        with pytest.raises(DegenerateGroupError, match="in 1 group"):
            softmax_axis(logits, -2)

    def test_vjp_matches_last_axis_on_a_transposed_copy(self):
        logits, keep = _masked_middle_axis_logits(8)
        p = softmax_axis(logits, -2)
        dp = np.random.default_rng(9).standard_normal(p.shape)
        want = softmax_vjp(np.swapaxes(p, -2, -1).copy(), np.swapaxes(dp, -2, -1).copy())
        got = softmax_vjp(p, dp.copy(), axis=-2)
        np.testing.assert_allclose(got, np.swapaxes(want, -2, -1), rtol=0, atol=1e-15)
        assert np.all(got[~keep] == 0.0)


def _dense_attention(q, k, v, bias, dy):
    """Per-item reference for block_attention and its VJP on (L, d, S) q,
    (L, d, T) k, (L, G, d_v, T) v and a (T, L, S) bias, group g of v read by
    queries g*S/G to (g+1)*S/G: the weights (T, L, S), y, and the cotangents
    dq, dk, dv and the logit cotangent (T, L, S), with the softmax VJP's
    inner sum taken over key slots."""
    items, groups = v.shape[:2]
    width = bias.shape[-1] // groups
    attn = np.empty(bias.shape)
    dlogits = np.empty(bias.shape)
    y, dq, dv = (np.empty_like(a) for a in (dy, q, v))
    dk = None if k is None else np.empty_like(k)
    for i in range(items):
        logits = bias[:, i] + (0.0 if k is None else k[i].T @ q[i])          # (T, S)
        e = np.exp(logits - logits.max(axis=0))
        a = e / e.sum(axis=0)
        da = np.empty_like(a)
        for g in range(groups):
            cols = slice(g * width, (g + 1) * width)
            y[i, g], dv[i, g] = v[i, g] @ a[:, cols], dy[i, g] @ a[:, cols].T
            da[:, cols] = v[i, g].T @ dy[i, g]
        attn[:, i] = a
        g = a * (da - (a * da).sum(axis=0))
        dlogits[:, i] = g
        if k is not None:
            dq[i], dk[i] = k[i] @ g, q[i] @ g.T
    return attn, y, dq, dk, dv, dlogits


def _items_per_tile(slots, queries):
    return max(1, TILE_BYTES // (slots * queries * 8))


# (items, d, T_h, T_w, S), f64: three full tiles and a partial fourth, fewer
# items than one tile, and items larger than a tile (one item per tile); and
# for value groups, two full tiles and a partial third with S = 16 queries
TILE_CASES = {
    "partial-last-tile": lambda: (3 * _items_per_tile(12, 10) + 7, 3, 3, 4, 10),
    "under-one-tile": lambda: (5, 4, 3, 3, 6),
    "item-over-a-tile": lambda: (3, 2, 10, 20, 180),
}


def _grouped_case():
    return 2 * _items_per_tile(12, 16) + 5, 3, 3, 4, 16


def _tile_case(dims, masked, keyless, groups=1, seed=40):
    """q, k, v, the (row, col) terms and dy of a case; masked, about half of
    each term's slots are -inf, but one row and one column slot per query
    are kept."""
    items, d, span_h, span_w, queries = dims
    rng = np.random.default_rng(seed)
    q = rng.standard_normal((items, d, queries))
    k = None if keyless else rng.standard_normal((items, d, span_h * span_w))
    v = rng.standard_normal((items, groups, d + 1, span_h * span_w))
    terms = [rng.standard_normal((span, items, queries)) for span in (span_h, span_w)]
    if masked:
        for term in terms:
            keep = rng.random(term.shape) < 0.5
            keep[rng.integers(len(term), size=(items, queries)),
                 np.arange(items)[:, None], np.arange(queries)] = True
            term[~keep] = -np.inf
    dy = rng.standard_normal((items, groups, d + 1, queries // groups))
    return q, k, v, terms, dy


def _dense_bias(terms):
    """The (T, L, S) logit bias of separable terms: row (+) col, row-major
    over the T_h x T_w key grid."""
    row, col = terms
    return (row[:, None] + col[None]).reshape((-1,) + row.shape[1:])


def _shaped(t, items):
    """t with its item axis split into (2, items/2) where it splits, so the
    core flattens two leading axes; a copy, which the VJP may consume."""
    lead = (2, items // 2) if items % 2 == 0 else (items,)
    return None if t is None else t.reshape(lead + t.shape[1:]).copy()


def _check_against_dense(q, k, v, terms, dy):
    """block_attention and its VJP on (q, k, v, terms, dy) of _tile_case
    against _dense_attention at 1e-12: y, the weights, dq, dk, dv and the
    terms' cotangents, the logit cotangent summed over column and over row
    slots."""
    bias = _dense_bias(terms)
    slots, items, queries = bias.shape
    want_attn, want_y, want_dq, want_dk, want_dv, want_g = _dense_attention(q, k, v, bias, dy)
    lead = _shaped(q, items).shape[:-2]

    y, stats = block_attention(_shaped(q, items), _shaped(k, items), _shaped(v, items), terms)
    assert y.shape == lead + dy.shape[1:]
    assert stats.shape == (2, items, queries)
    np.testing.assert_allclose(y.reshape(want_y.shape), want_y, rtol=0, atol=1e-12)
    # with one-hot values, eye(T) as one group, y is the weights themselves
    one_hot = np.broadcast_to(np.eye(slots), lead + (1, slots, slots))
    attn, _ = block_attention(_shaped(q, items), _shaped(k, items), one_hot, terms)
    np.testing.assert_allclose(np.moveaxis(attn.reshape(items, slots, queries), 1, 0),
                               want_attn, rtol=0, atol=1e-12)

    key, value = _shaped(k, items), _shaped(v, items)
    d_terms = [np.full(t.shape, np.nan) for t in terms]
    dq, dk, dv = block_attention_vjp(_shaped(q, items), key, value, stats, _shaped(dy, items),
                                     terms, d_terms)
    grid = want_g.reshape((len(terms[0]), len(terms[1])) + want_g.shape[1:])
    np.testing.assert_allclose(d_terms[0], grid.sum(axis=1), rtol=0, atol=1e-12)
    np.testing.assert_allclose(d_terms[1], grid.sum(axis=0), rtol=0, atol=1e-12)
    np.testing.assert_allclose(dv.reshape(want_dv.shape), want_dv, rtol=0, atol=1e-12)
    # dk and dv are written over k and v
    assert np.shares_memory(dv, value)
    assert dq.shape == lead + q.shape[1:]
    if k is None:
        # keyless logits do not depend on q
        assert dk is None
        np.testing.assert_array_equal(dq, 0.0)
    else:
        assert np.shares_memory(dk, key)
        np.testing.assert_allclose(dq.reshape(want_dq.shape), want_dq, rtol=0, atol=1e-12)
        np.testing.assert_allclose(dk.reshape(want_dk.shape), want_dk, rtol=0, atol=1e-12)


class TestBlockAttentionTiles:
    @pytest.mark.parametrize("masked", [False, True], ids=["dense", "masked"])
    @pytest.mark.parametrize("keyless", [False, True], ids=["qk", "k-none"])
    @pytest.mark.parametrize("case", TILE_CASES)
    def test_matches_dense_per_item_reference(self, case, keyless, masked):
        _check_against_dense(*_tile_case(TILE_CASES[case](), masked, keyless))

    @pytest.mark.parametrize("masked", [False, True], ids=["dense", "masked"])
    @pytest.mark.parametrize("groups", [2, 4])
    def test_value_groups_match_dense_per_item_reference(self, groups, masked):
        # G value groups over one key set, as the attention stem's heads
        _check_against_dense(*_tile_case(_grouped_case(), masked, False, groups))

    def test_term_cotangents_with_value_groups_and_no_keys(self):
        # a partial last tile, G = 4, masked terms and k = None at once
        items, _, span_h, span_w, queries = _grouped_case()
        assert items % _items_per_tile(span_h * span_w, queries)
        _check_against_dense(*_tile_case(_grouped_case(), True, True, groups=4))

    @pytest.mark.parametrize("keyless", [False, True], ids=["qk", "k-none"])
    def test_term_cotangents_leave_the_other_cotangents_alone(self, keyless):
        q, k, v, terms, dy = _tile_case(TILE_CASES["partial-last-tile"](), True, keyless)
        _, stats = block_attention(q, k, v, terms)
        with_sums, without = [
            block_attention_vjp(q, None if k is None else k.copy(), v.copy(), stats, dy, terms,
                                d_terms)
            for d_terms in ([np.empty(t.shape) for t in terms], None)]
        for got, want in zip(with_sums, without):
            assert (got is None and want is None) or got.tobytes() == want.tobytes()

    def test_queries_must_split_into_the_value_groups(self):
        q, k, v, terms, dy = _tile_case((2, 3, 2, 2, 6), False, False, groups=4)
        with pytest.raises(DimensionError, match="6 queries"):
            block_attention(q, k, v)

    def test_degenerate_group_in_the_last_tile_raises(self):
        q, k, v, terms, dy = _tile_case(TILE_CASES["partial-last-tile"](), masked=True,
                                        keyless=False)
        terms[0][:, -1, 3] = -np.inf                 # one group of the last item
        with pytest.raises(DegenerateGroupError, match="in 1 group"):
            block_attention(q, k, v, terms)


class TestExtractNeighborhood:
    def test_interior_window_fully_valid(self):
        x = np.arange(25, dtype=float).reshape(1, 1, 5, 5)
        windows = sliding_windows(pad_hw(x, 1), 3)
        np.testing.assert_array_equal(windows[0, 0, 2, 2], x[0, 0, 1:4, 1:4])
        assert window_validity(5, 5, 3)[2, 2].all()

    def test_corner_has_four_valid_slots(self):
        # at the top-left corner only offsets (0, 0), (0, 1), (1, 0), (1, 1)
        # are in the image: slots u*k + v with u, v >= k//2
        valid = window_validity(6, 7, 3)[0, 0]
        assert int(valid.sum()) == 4
        assert np.flatnonzero(valid).tolist() == [4, 5, 7, 8]

    def test_out_of_image_slots_are_zero(self):
        x = np.ones((1, 2, 4, 4))
        windows = sliding_windows(pad_hw(x, 1), 3).reshape(1, 2, 4, 4, 9)
        valid = window_validity(4, 4, 3)
        assert np.all(windows[:, :, ~valid] == 0.0)
        assert np.all(windows[:, :, valid] == 1.0)

    def test_every_window_matches_direct_gather(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((1, 2, 6, 6))
        k = 5
        windows = sliding_windows(pad_hw(x, k // 2), k)
        valid = window_validity(6, 6, k)
        for i in range(6):
            for j in range(6):
                for u in range(k):
                    for v in range(k):
                        inside = _in_image(i, j, u, v, k, 6, 6)
                        r, c = i - k // 2 + u, j - k // 2 + v
                        want = x[:, :, r, c] if inside else 0.0
                        np.testing.assert_array_equal(windows[:, :, i, j, u, v], want)
                        assert bool(valid[i, j, u * k + v]) == inside

    def test_valid_count_matches_geometry(self):
        for k in (3, 5):
            half = k // 2
            valid = window_validity(5, 6, k)
            for i in range(5):
                for j in range(6):
                    rows = min(i + half, 4) - max(i - half, 0) + 1
                    cols = min(j + half, 5) - max(j - half, 0) + 1
                    assert int(valid[i, j].sum()) == rows * cols

    def test_even_extent_rejected(self):
        with pytest.raises(UnsupportedExtentError):
            window_validity(4, 4, 2)

    def test_offsets_are_row_major_relative_positions(self):
        # pixel (r, c) holds 100*r + c, so each slot's value minus the
        # center's is 100*du + dv for the slot's offset (du, dv); the strided
        # window view and the layers' slot map read the slots in that order
        x = (100 * np.arange(5)[:, None] + np.arange(5)[None, :]).astype(float)
        xp = pad_hw(x[None, None], 1)
        offsets = [(du, dv) for du in (-1, 0, 1) for dv in (-1, 0, 1)]
        want = [100 * du + dv for du, dv in offsets]
        windows = sliding_windows(xp, 3)
        assert (windows[0, 0, 2, 2] - x[2, 2]).reshape(-1).tolist() == want
        slots = [xp[at][0, 0, 2, 2] - x[2, 2] for _, _, at in window_slices(3, 5, 5)]
        assert slots == want


class TestWindowValidity:
    def test_matches_per_pixel_extraction(self):
        table = window_validity(4, 5, 3)
        for i in range(4):
            for j in range(5):
                want = [_in_image(i, j, u, v, 3, 4, 5) for u in range(3) for v in range(3)]
                np.testing.assert_array_equal(table[i, j], want)
