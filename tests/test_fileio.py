"""Round-trip and corruption tests for every on-disk format."""

import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from splatkin.core import GaussianSet, Role, quat_normalize
from splatkin.errors import FormatError, InvalidArgumentError, TruncationError
from splatkin.fileio import (
    attach_labels,
    read_config,
    read_gmap,
    read_gset,
    read_labels,
    read_mapping,
    read_pgm,
    read_ppm,
    read_trace,
    write_gmap,
    write_gset,
    write_labels,
    write_mapping,
    write_pgm,
    write_ppm,
    write_trace,
)
from splatkin.morton import AttributeMap, MortonMapping
from splatkin.pipeline import Trace

finite = st.floats(allow_nan=False, allow_infinity=False, width=64)


def _random_set(rng, n=5, channels=3, labels=False, role=Role.APPEARANCE):
    kw = {}
    if labels:
        kw["labels"] = rng.integers(0, 2, size=n)
        kw["label_names"] = ("left", "right")
    return GaussianSet(
        positions=rng.normal(size=(n, 3)),
        rotations=quat_normalize(rng.normal(size=(n, 4))),
        log_scales=rng.normal(size=(n, 3)),
        opacities=rng.uniform(0.0, 1.0, size=n),
        colors=rng.uniform(0.0, 1.0, size=(n, channels)),
        role=role,
        frame=4,
        **kw,
    )


GSET_HEADER = "<4sIIIIqQ"
GSET_HEADER_BYTES = struct.calcsize(GSET_HEADER)


def _written(tmp_path, gset, name="s.gset"):
    """Write ``gset``; returns its path and its bytes, ready to corrupt."""
    path = tmp_path / name
    write_gset(path, gset)
    return path, bytearray(path.read_bytes())


def _field_offset(gset, field, row=0):
    """Byte offset of ``row`` of ``field`` in the binary layout of ``gset``."""
    n, widths = len(gset), {"positions": 3, "rotations": 4, "log_scales": 3,
                            "opacities": 1, "colors": gset.color_channels, "labels": 1}
    offset = GSET_HEADER_BYTES
    for name, width in widths.items():
        if name == field:
            return offset + 8 * width * row
        offset += 8 * width * n
    raise KeyError(field)


def _with_header(blob, **fields):
    """``blob`` with some header fields replaced (names as in the layout)."""
    names = ("magic", "version", "role", "channels", "labelled", "frame", "count")
    values = dict(zip(names, struct.unpack_from(GSET_HEADER, blob)))
    values.update(fields)
    return struct.pack(GSET_HEADER, *(values[k] for k in names)) + bytes(blob[GSET_HEADER_BYTES:])


class TestKernelSetFiles:
    def test_round_trip_bit_exact(self, tmp_path):
        gset = _random_set(np.random.default_rng(0), n=7)
        path = tmp_path / "a.gset"
        write_gset(path, gset)
        back = read_gset(path)
        assert np.array_equal(back.positions, gset.positions)
        assert np.array_equal(back.rotations, gset.rotations)
        assert np.array_equal(back.log_scales, gset.log_scales)
        assert np.array_equal(back.opacities, gset.opacities)
        assert np.array_equal(back.colors, gset.colors)
        assert back.role is Role.APPEARANCE
        assert back.frame == 4
        assert back.labels is None

    def test_round_trip_with_labels(self, tmp_path):
        gset = _random_set(np.random.default_rng(1), n=6, labels=True)
        path = tmp_path / "b.gset"
        write_gset(path, gset)
        back = read_gset(path, label_names=("left", "right"))
        assert np.array_equal(back.labels, gset.labels)
        assert back.label_names == ("left", "right")

    @given(value=finite)
    @example(value=-0.0)
    @example(value=5e-324)
    @example(value=-2.2250738585072009e-308)
    @example(value=1.7976931348623157e308)
    @settings(max_examples=60, deadline=None)
    def test_any_finite_float_survives(self, tmp_path_factory, value):
        # every finite float keeps its bits, including subnormals, -0.0 and
        # near-overflow magnitudes
        tmp = tmp_path_factory.mktemp("gs")
        gset = GaussianSet(
            positions=np.full((1, 3), value),
            rotations=np.array([[1.0, 0.0, 0.0, 0.0]]),
            log_scales=np.full((1, 3), value),
            opacities=np.array([0.5]),
            colors=np.full((1, 3), value),
            role=Role.MOTION,
        )
        path = tmp / "v.gset"
        write_gset(path, gset)
        back = read_gset(path)
        for field in ("positions", "log_scales", "colors"):
            assert getattr(back, field).tobytes() == getattr(gset, field).tobytes()

    def test_motion_role_round_trip(self, tmp_path):
        gset = _random_set(np.random.default_rng(2), role=Role.MOTION)
        write_gset(tmp_path / "m.gset", gset)
        assert read_gset(tmp_path / "m.gset").role is Role.MOTION

    @pytest.mark.parametrize("role", list(Role))
    @pytest.mark.parametrize("labels", [False, True])
    def test_every_field_round_trips_bitwise(self, tmp_path, role, labels):
        # large enough that NumPy sums the arrays in several chunks: the fields
        # read back must also sum to the same bits as the arrays they came from
        gset = _random_set(np.random.default_rng(3), n=4000, channels=2,
                           labels=labels, role=role)
        back = read_gset(_written(tmp_path, gset)[0])
        for field in ("positions", "rotations", "log_scales", "opacities", "colors", "labels"):
            got, want = getattr(back, field), getattr(gset, field)
            if want is None:
                assert got is None
                continue
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
            assert got.flags.c_contiguous and got.flags.aligned and not got.flags.writeable
            assert got.sum() == want.sum()
        assert (back.role, back.frame) == (role, 4)

    def test_header_layout(self, tmp_path):
        gset = _random_set(np.random.default_rng(4), n=3, channels=2, labels=True)
        blob = _written(tmp_path, gset)[1]
        assert struct.unpack_from(GSET_HEADER, blob) == (b"GSET", 1, 1, 2, 1, 4, 3)
        assert len(blob) == 36 + 8 * 3 * (3 + 4 + 3 + 1 + 2) + 8 * 3
        offset = _field_offset(gset, "colors", row=1)
        assert struct.unpack_from("<2d", blob, offset) == tuple(gset.colors[1])
        assert struct.unpack_from("<3q", blob, _field_offset(gset, "labels")) == tuple(gset.labels)

    def test_same_set_writes_identical_bytes(self, tmp_path):
        gset = _random_set(np.random.default_rng(5), n=9, labels=True)
        assert _written(tmp_path, gset, "a.gset")[1] == _written(tmp_path, gset, "b.gset")[1]

    def test_truncated_records(self, tmp_path):
        gset = _random_set(np.random.default_rng(5), n=4)
        path, blob = _written(tmp_path, gset, "e.gset")
        path.write_bytes(blob[:-8 * 14])  # one record's worth of bytes short
        with pytest.raises(TruncationError, match=r"e\.gset: expected \d+ bytes"):
            read_gset(path)

    def test_every_truncation_length(self, tmp_path):
        gset = _random_set(np.random.default_rng(20), n=2, channels=1, labels=True)
        path, blob = _written(tmp_path, gset, "cut.gset")
        for size in range(len(blob)):
            path.write_bytes(blob[:size])
            with pytest.raises(TruncationError, match=r"cut\.gset: "):
                read_gset(path)

    def test_extra_record_rejected(self, tmp_path):
        gset = _random_set(np.random.default_rng(6), n=3)
        path, blob = _written(tmp_path, gset, "f.gset")
        path.write_bytes(blob + blob[-8 * 14:])
        with pytest.raises(FormatError, match=r"f\.gset: 112 trailing bytes"):
            read_gset(path)

    def test_one_trailing_byte(self, tmp_path):
        gset = _random_set(np.random.default_rng(21), n=3, labels=True)
        path, blob = _written(tmp_path, gset, "t.gset")
        path.write_bytes(blob + b"\n")
        with pytest.raises(FormatError, match=r"t\.gset: 1 trailing bytes"):
            read_gset(path)

    def test_nan_token_rejected(self, tmp_path):
        gset = _random_set(np.random.default_rng(9), n=2)
        path, blob = _written(tmp_path, gset, "i.gset")
        struct.pack_into("<d", blob, _field_offset(gset, "log_scales", row=1), float("nan"))
        path.write_bytes(blob)
        with pytest.raises(FormatError, match=r"i\.gset: log_scales contains non-finite"):
            read_gset(path)

    def test_bad_magic(self, tmp_path):
        path, blob = _written(tmp_path, _random_set(np.random.default_rng(22)), "j.gset")
        path.write_bytes(_with_header(blob, magic=b"GMAP"))
        with pytest.raises(FormatError, match=r"j\.gset: bad magic b'GMAP'"):
            read_gset(path)

    def test_unknown_role(self, tmp_path):
        gset = _random_set(np.random.default_rng(10), n=2)
        path, blob = _written(tmp_path, gset, "k.gset")
        path.write_bytes(_with_header(blob, role=2))
        with pytest.raises(FormatError, match=r"k\.gset: unknown role code 2"):
            read_gset(path)

    @pytest.mark.parametrize("field,value,message", [
        ("version", 2, "unsupported version 2"),
        ("version", 0, "unsupported version 0"),
        ("labelled", 2, "labelled flag must be 0 or 1, got 2"),
        ("labelled", 2**32 - 1, "labelled flag must be 0 or 1"),
        ("frame", -1, "frame -1"),
        ("count", 0, "count 0"),
        ("channels", 0, "0 color channels"),
    ], ids=["version-2", "version-0", "labelled-2", "labelled-max", "frame-negative",
            "count-0", "channels-0"])
    def test_bad_header_field(self, tmp_path, field, value, message):
        gset = _random_set(np.random.default_rng(23), n=2, labels=True)
        path, blob = _written(tmp_path, gset, "h.gset")
        path.write_bytes(_with_header(blob, **{field: value}))
        with pytest.raises(FormatError, match=rf"h\.gset: .*{message}") as info:
            read_gset(path)
        assert type(info.value) is FormatError

    @pytest.mark.parametrize("count", [3, 2**60, 2**64 - 1])
    def test_count_beyond_byte_length_is_truncation(self, tmp_path, count):
        # the length is checked before any array is built, so no count
        # reaches an allocation
        gset = _random_set(np.random.default_rng(24), n=2)
        path, blob = _written(tmp_path, gset, "big.gset")
        path.write_bytes(_with_header(blob, count=count))
        with pytest.raises(TruncationError, match=r"big\.gset: expected \d+ bytes"):
            read_gset(path)

    @pytest.mark.parametrize("channels", [4, 2**32 - 1])
    def test_channels_beyond_byte_length_is_truncation(self, tmp_path, channels):
        gset = _random_set(np.random.default_rng(25), n=2)
        path, blob = _written(tmp_path, gset, "wide.gset")
        path.write_bytes(_with_header(blob, channels=channels))
        with pytest.raises(TruncationError, match=r"wide\.gset: expected"):
            read_gset(path)

    def test_missing_header_line(self, tmp_path):
        path = tmp_path / "l.gset"
        path.write_bytes(struct.pack("<4sII", b"GSET", 1, 0))
        with pytest.raises(TruncationError, match=r"l\.gset: header needs 36 bytes, file has 12"):
            read_gset(path)

    def test_old_text_layout_rejected(self, tmp_path):
        path = tmp_path / "old.gset"
        path.write_text("GSET 1\nrole appearance\nframe 0\ncount 1\ncolor_channels 3\n"
                        "0 0.0 0.0 0.0 1.0 0.0 0.0 0.0 -1.0 -1.0 -1.0 0.5 0.5 0.5 0.5\n")
        with pytest.raises(FormatError, match=r"old\.gset: unsupported version"):
            read_gset(path)

    def test_label_column_all_or_none(self, tmp_path):
        # the labelled flag decides whether a labels block follows
        plain = _random_set(np.random.default_rng(11), n=3)
        path, blob = _written(tmp_path, plain, "m.gset")
        path.write_bytes(_with_header(blob, labelled=1))
        with pytest.raises(TruncationError, match=r"m\.gset: expected"):
            read_gset(path)
        labelled = _random_set(np.random.default_rng(11), n=3, labels=True)
        path, blob = _written(tmp_path, labelled, "m.gset")
        path.write_bytes(_with_header(blob, labelled=0))
        with pytest.raises(FormatError, match=r"m\.gset: 24 trailing bytes"):
            read_gset(path)

    def test_invalid_quaternion_reported_with_path(self, tmp_path):
        gset = _random_set(np.random.default_rng(12), n=2)
        path, blob = _written(tmp_path, gset, "n.gset")
        struct.pack_into("<4d", blob, _field_offset(gset, "rotations", row=1), 0.0, 0.0, 0.0, 0.0)
        path.write_bytes(blob)
        with pytest.raises(FormatError, match=r"n\.gset: rotations contain a \(near\) zero-norm"):
            read_gset(path)

    @pytest.mark.parametrize("label", [-1, -2**63])
    def test_negative_label_id(self, tmp_path, label):
        gset = _random_set(np.random.default_rng(17), n=3, labels=True)
        path, blob = _written(tmp_path, gset, "p.gset")
        struct.pack_into("<q", blob, _field_offset(gset, "labels", row=2), label)
        path.write_bytes(blob)
        for names in (None, ("left", "right")):
            with pytest.raises(FormatError, match=r"p\.gset: negative label id"):
                read_gset(path, label_names=names)

    def test_label_id_beyond_names(self, tmp_path):
        gset = _random_set(np.random.default_rng(19), n=3, labels=True)
        path, blob = _written(tmp_path, gset, "p.gset")
        struct.pack_into("<q", blob, _field_offset(gset, "labels", row=2), 2)
        path.write_bytes(blob)
        assert read_gset(path).labels[2] == 2  # no names: ids are kept as read
        with pytest.raises(FormatError, match=r"p\.gset: label ids must lie in \[0, 2\)"):
            read_gset(path, label_names=("left", "right"))

    def test_frame_beyond_int64(self, tmp_path):
        # a frame field with the top bit set is a negative int64
        gset = _random_set(np.random.default_rng(18), n=2)
        path, blob = _written(tmp_path, gset, "q.gset")
        struct.pack_into("<Q", blob, 20, 2**63)
        path.write_bytes(blob)
        with pytest.raises(FormatError, match=r"q\.gset: bad header: frame -9223372036854775808"):
            read_gset(path)

    def test_random_corruption(self, tmp_path):
        # flip 1-3 random bytes anywhere: the reader either refuses the file
        # with a format error or reads exactly what the bytes say
        gset = _random_set(np.random.default_rng(26), n=3, channels=2, labels=True)
        path, blob = _written(tmp_path, gset, "x.gset")
        rng = np.random.default_rng(27)
        outcomes = {"refused": 0, "read": 0}
        for _ in range(400):
            bad = bytearray(blob)
            for at in rng.integers(0, len(blob), size=rng.integers(1, 4)):
                bad[at] ^= int(rng.integers(1, 256))
            path.write_bytes(bad)
            try:
                back = read_gset(path, label_names=("left", "right"))
            except FormatError:
                outcomes["refused"] += 1
                continue
            outcomes["read"] += 1
            write_gset(tmp_path / "again.gset", back)
            assert (tmp_path / "again.gset").read_bytes() == bytes(bad)
        assert min(outcomes.values()) > 0, outcomes

    def test_refuses_to_write_non_finite(self, tmp_path):
        gset = _random_set(np.random.default_rng(13), n=2)
        bad = gset.positions.copy()
        bad[0, 0] = np.inf
        with pytest.raises(InvalidArgumentError, match="non-finite"):
            write_gset(tmp_path / "o.gset", gset.replace(positions=bad))
        assert not (tmp_path / "o.gset").exists()

    @pytest.mark.parametrize("fields,message", [
        ({"frame": -1}, "frame -1"),
        ({"frame": 2**63}, "frame 9223372036854775808"),
        ({"colors": np.zeros((2, 0))}, "0 color channels"),
        ({"positions": np.zeros((0, 3)), "rotations": np.zeros((0, 4)),
          "log_scales": np.zeros((0, 3)), "opacities": np.zeros(0), "colors": np.zeros((0, 3))},
         "count 0"),
    ], ids=["frame-negative", "frame-beyond-int64", "no-channels", "empty"])
    def test_refuses_to_write_what_the_reader_refuses(self, tmp_path, fields, message):
        gset = _random_set(np.random.default_rng(13), n=2).replace(**fields)
        with pytest.raises(InvalidArgumentError, match=message):
            write_gset(tmp_path / "o.gset", gset)
        assert not (tmp_path / "o.gset").exists()


class TestLabelFiles:
    def test_round_trip(self, tmp_path):
        names = ["upper", "lower", "upper", "tip"]
        write_labels(tmp_path / "l.csv", names)
        assert read_labels(tmp_path / "l.csv") == names

    def test_bad_header(self, tmp_path):
        (tmp_path / "l.csv").write_text("idx,lbl\n0,a\n")
        with pytest.raises(FormatError, match="header"):
            read_labels(tmp_path / "l.csv")

    def test_out_of_order(self, tmp_path):
        (tmp_path / "l.csv").write_text("index,label\n0,a\n2,b\n")
        with pytest.raises(FormatError, match="out of order"):
            read_labels(tmp_path / "l.csv")

    def test_empty_rejected(self, tmp_path):
        (tmp_path / "l.csv").write_text("index,label\n")
        with pytest.raises(FormatError, match="no label rows"):
            read_labels(tmp_path / "l.csv")

    def test_comma_in_name_refused_on_write(self, tmp_path):
        with pytest.raises(InvalidArgumentError, match="bad label name"):
            write_labels(tmp_path / "l.csv", ["a,b"])

    def test_attach_labels_sorted_unique(self):
        gset = _random_set(np.random.default_rng(14), n=4)
        out = attach_labels(gset, ["zeta", "alpha", "zeta", "mid"])
        assert out.label_names == ("alpha", "mid", "zeta")
        assert list(out.labels) == [2, 0, 2, 1]

    def test_attach_labels_length_mismatch(self):
        gset = _random_set(np.random.default_rng(15), n=4)
        with pytest.raises(InvalidArgumentError, match="4 kernels"):
            attach_labels(gset, ["a", "b"])


class TestAttributeMapFiles:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(16)
        amap = AttributeMap(data=rng.normal(size=(6, 5, 4)).astype(np.float32))
        write_gmap(tmp_path / "a.gmap", amap)
        back = read_gmap(tmp_path / "a.gmap")
        assert back.data.dtype == np.float32
        assert np.array_equal(back.data, amap.data)
        assert back.resolution == (5, 6)

    def test_header_layout(self, tmp_path):
        amap = AttributeMap(data=np.zeros((2, 3, 1), dtype=np.float32))
        write_gmap(tmp_path / "b.gmap", amap)
        blob = (tmp_path / "b.gmap").read_bytes()
        assert blob[:4] == b"GMAP"
        assert struct.unpack_from("<IIII", blob, 4) == (1, 3, 2, 1)
        assert len(blob) == 20 + 4 * 3 * 2 * 1

    def test_truncated_header(self, tmp_path):
        (tmp_path / "c.gmap").write_bytes(b"GMAP\x01\x00")
        with pytest.raises(TruncationError, match="20 bytes"):
            read_gmap(tmp_path / "c.gmap")

    def test_truncated_payload(self, tmp_path):
        amap = AttributeMap(data=np.ones((2, 2, 2), dtype=np.float32))
        write_gmap(tmp_path / "d.gmap", amap)
        blob = (tmp_path / "d.gmap").read_bytes()
        (tmp_path / "d.gmap").write_bytes(blob[:-3])
        with pytest.raises(TruncationError, match="expected"):
            read_gmap(tmp_path / "d.gmap")

    def test_trailing_bytes(self, tmp_path):
        amap = AttributeMap(data=np.ones((2, 2, 2), dtype=np.float32))
        write_gmap(tmp_path / "e.gmap", amap)
        with open(tmp_path / "e.gmap", "ab") as fh:
            fh.write(b"xx")
        with pytest.raises(FormatError, match="trailing"):
            read_gmap(tmp_path / "e.gmap")

    def test_bad_magic(self, tmp_path):
        header = struct.pack("<4sIIII", b"PAMG", 1, 1, 1, 1) + b"\x00" * 4
        (tmp_path / "f.gmap").write_bytes(header)
        with pytest.raises(FormatError, match="magic"):
            read_gmap(tmp_path / "f.gmap")

    def test_bad_version(self, tmp_path):
        header = struct.pack("<4sIIII", b"GMAP", 9, 1, 1, 1) + b"\x00" * 4
        (tmp_path / "g.gmap").write_bytes(header)
        with pytest.raises(FormatError, match="version"):
            read_gmap(tmp_path / "g.gmap")

    def test_non_finite_payload_rejected(self, tmp_path):
        payload = struct.pack("<f", float("nan"))
        blob = struct.pack("<4sIIII", b"GMAP", 1, 1, 1, 1) + payload
        (tmp_path / "h.gmap").write_bytes(blob)
        with pytest.raises(FormatError, match="non-finite"):
            read_gmap(tmp_path / "h.gmap")

    def test_refuses_non_finite_write(self, tmp_path):
        data = np.zeros((1, 1, 1), dtype=np.float32)
        data[0, 0, 0] = np.nan
        with pytest.raises(InvalidArgumentError, match="non-finite"):
            write_gmap(tmp_path / "i.gmap", AttributeMap(data=data))


class TestMappingFiles:
    def test_round_trip(self, tmp_path):
        uv = np.array([[0, 0], [2, 1], [1, 3]], dtype=np.int64)
        mapping = MortonMapping(resolution=(3, 4), uv=uv, valid_count=3)
        write_mapping(tmp_path / "m.txt", mapping)
        back = read_mapping(tmp_path / "m.txt", resolution=(3, 4))
        assert np.array_equal(back.uv, uv)
        assert back.resolution == (3, 4)
        assert len(back) == 3

    def test_bad_field_count(self, tmp_path):
        (tmp_path / "m.txt").write_text("0 1\n")
        with pytest.raises(FormatError, match="index u v"):
            read_mapping(tmp_path / "m.txt", resolution=(4, 4))

    def test_out_of_order(self, tmp_path):
        (tmp_path / "m.txt").write_text("0 0 0\n2 1 1\n")
        with pytest.raises(FormatError, match="out of order"):
            read_mapping(tmp_path / "m.txt", resolution=(4, 4))

    def test_coordinates_validated_against_resolution(self, tmp_path):
        (tmp_path / "m.txt").write_text("0 5 0\n")
        with pytest.raises(FormatError, match="outside"):
            read_mapping(tmp_path / "m.txt", resolution=(4, 4))

    def test_coordinate_beyond_int64(self, tmp_path):
        (tmp_path / "m.txt").write_text("0 0 0\n1 1 99999999999999999999\n")
        with pytest.raises(FormatError, match=r"m\.txt:2: integer .* out of int64 range"):
            read_mapping(tmp_path / "m.txt", resolution=(4, 4))

    def test_duplicate_pixel_rejected(self, tmp_path):
        (tmp_path / "m.txt").write_text("0 1 1\n1 1 1\n")
        with pytest.raises(FormatError, match="injective"):
            read_mapping(tmp_path / "m.txt", resolution=(4, 4))

    def test_trailing_blank_lines_tolerated(self, tmp_path):
        (tmp_path / "m.txt").write_text("0 0 0\n1 1 0\n\n  \n")
        assert len(read_mapping(tmp_path / "m.txt", resolution=(4, 4))) == 2

    @pytest.mark.parametrize("text,line", [("0 0 0\n1 1 0\n\n2 x 0\n", 3),
                                           ("\n0 0 0\n", 1)])
    def test_blank_line_inside_rejected_at_its_line(self, tmp_path, text, line):
        (tmp_path / "m.txt").write_text(text)
        with pytest.raises(FormatError, match=rf"m\.txt:{line}: blank line inside the record block"):
            read_mapping(tmp_path / "m.txt", resolution=(4, 4))

    def test_empty_rejected(self, tmp_path):
        (tmp_path / "m.txt").write_text("\n")
        with pytest.raises(FormatError, match="empty"):
            read_mapping(tmp_path / "m.txt", resolution=(4, 4))


class TestImageFiles:
    def test_ppm_round_trip_quantized(self, tmp_path):
        rng = np.random.default_rng(17)
        img = rng.uniform(0.0, 1.0, size=(5, 7, 3))
        write_ppm(tmp_path / "a.ppm", img)
        back = read_ppm(tmp_path / "a.ppm")
        # oracle: round half up to 8 bits, then rescale
        expect = np.floor(img * 255.0 + 0.5) / 255.0
        assert back.shape == (5, 7, 3)
        assert np.allclose(back, expect, atol=1e-12)

    def test_pgm_round_trip_quantized(self, tmp_path):
        rng = np.random.default_rng(18)
        img = rng.uniform(0.0, 1.0, size=(4, 6))
        write_pgm(tmp_path / "a.pgm", img)
        back = read_pgm(tmp_path / "a.pgm")
        expect = np.floor(img * 255.0 + 0.5) / 255.0
        assert back.shape == (4, 6)
        assert np.allclose(back, expect, atol=1e-12)

    def test_values_clamped(self, tmp_path):
        img = np.array([[-0.5, 2.0]])
        write_pgm(tmp_path / "b.pgm", img)
        back = read_pgm(tmp_path / "b.pgm")
        assert back[0, 0] == 0.0
        assert back[0, 1] == 1.0

    def test_half_rounds_up(self, tmp_path):
        # 127.5/255 quantizes to 128, not 127
        write_pgm(tmp_path / "c.pgm", np.array([[127.5 / 255.0]]))
        blob = (tmp_path / "c.pgm").read_bytes()
        assert blob[-1] == 128

    def test_ppm_bad_magic(self, tmp_path):
        (tmp_path / "d.ppm").write_bytes(b"P5\n1 1\n255\n\x00")
        with pytest.raises(FormatError, match="magic"):
            read_ppm(tmp_path / "d.ppm")

    def test_bad_maxval(self, tmp_path):
        (tmp_path / "e.pgm").write_bytes(b"P5\n1 1\n65535\n\x00\x00")
        with pytest.raises(FormatError, match="maxval"):
            read_pgm(tmp_path / "e.pgm")

    def test_truncated_payload(self, tmp_path):
        (tmp_path / "f.pgm").write_bytes(b"P5\n2 2\n255\n\x00\x00")
        with pytest.raises(TruncationError, match="payload"):
            read_pgm(tmp_path / "f.pgm")

    def test_trailing_payload(self, tmp_path):
        (tmp_path / "g.pgm").write_bytes(b"P5\n1 1\n255\n\x00\x00")
        with pytest.raises(FormatError, match="trailing"):
            read_pgm(tmp_path / "g.pgm")

    def test_wrong_shape_refused(self, tmp_path):
        with pytest.raises(InvalidArgumentError, match="H,W,3"):
            write_ppm(tmp_path / "h.ppm", np.zeros((2, 2)))


class TestConfigFiles:
    def test_parses_known_keys(self, tmp_path):
        (tmp_path / "c.cfg").write_text(
            "# tracker settings\n"
            "k_neighbors = 6\n"
            "l = 0.02\n"
            "\n"
            "lambda_iso=0.5\n"
            "seed=3\n"
        )
        out = read_config(tmp_path / "c.cfg")
        assert out == {"k_neighbors": 6, "l": 0.02, "lambda_iso": 0.5, "seed": 3}
        assert isinstance(out["k_neighbors"], int)

    def test_unknown_key(self, tmp_path):
        (tmp_path / "c.cfg").write_text("velocity=3\n")
        with pytest.raises(FormatError, match="unknown key"):
            read_config(tmp_path / "c.cfg")

    def test_duplicate_key(self, tmp_path):
        (tmp_path / "c.cfg").write_text("seed=1\nseed=2\n")
        with pytest.raises(FormatError, match="duplicate"):
            read_config(tmp_path / "c.cfg")

    def test_empty_value(self, tmp_path):
        (tmp_path / "c.cfg").write_text("seed=\n")
        with pytest.raises(FormatError, match="empty value"):
            read_config(tmp_path / "c.cfg")

    def test_missing_equals(self, tmp_path):
        (tmp_path / "c.cfg").write_text("seed 4\n")
        with pytest.raises(FormatError, match="key=value"):
            read_config(tmp_path / "c.cfg")

    def test_int_key_rejects_float(self, tmp_path):
        (tmp_path / "c.cfg").write_text("k_neighbors=2.5\n")
        with pytest.raises(FormatError, match="bad integer"):
            read_config(tmp_path / "c.cfg")

    def test_quant_bits_range(self, tmp_path):
        (tmp_path / "c.cfg").write_text("quant_bits=22\n")
        with pytest.raises(FormatError, match=r"\[1, 21\]"):
            read_config(tmp_path / "c.cfg")

    def test_length_scale_must_be_positive(self, tmp_path):
        (tmp_path / "c.cfg").write_text("l=0.0\n")
        with pytest.raises(FormatError, match="positive"):
            read_config(tmp_path / "c.cfg")

    def test_negative_seed_rejected(self, tmp_path):
        (tmp_path / "c.cfg").write_text("seed=-1\n")
        with pytest.raises(FormatError, match=">= 0"):
            read_config(tmp_path / "c.cfg")


class TestTraceFiles:
    def test_round_trip(self, tmp_path):
        trace = Trace(columns=("iteration", "e_data", "total"))
        trace.record(0, [1.5, 2.5])
        trace.record(1, [0.25, 1.0])
        write_trace(tmp_path / "t.csv", trace)
        columns, rows = read_trace(tmp_path / "t.csv")
        assert columns == ("iteration", "e_data", "total")
        assert rows == [(0, 1.5, 2.5), (1, 0.25, 1.0)]

    def test_field_count_mismatch(self, tmp_path):
        (tmp_path / "t.csv").write_text("iteration,total\n0,1.0,2.0\n")
        with pytest.raises(FormatError, match="expected 2 fields"):
            read_trace(tmp_path / "t.csv")

    def test_empty_rejected(self, tmp_path):
        (tmp_path / "t.csv").write_text("")
        with pytest.raises(FormatError, match="empty"):
            read_trace(tmp_path / "t.csv")
