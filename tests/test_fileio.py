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
from splatkin.morton import AttributeMap, MortonMapping, build_mapping
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


def _random_mapping(rng, n=3, resolution=(256, 256)):
    """``n`` kernels on distinct random pixels of the map."""
    w, h = resolution
    flat = rng.choice(w * h, size=n, replace=False)
    return MortonMapping(resolution=resolution, uv=np.stack([flat % w, flat // w], axis=1))


GSET_HEADER = "<4sIIIIqQ"
GSET_HEADER_BYTES = struct.calcsize(GSET_HEADER)
# struct layout and field names of each binary header, by file suffix
HEADERS = {
    "gset": (GSET_HEADER, ("magic", "version", "role", "channels", "labelled", "frame", "count")),
    "uvm": ("<4sIIIQ", ("magic", "version", "width", "height", "count")),
}


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


def _with_header(blob, suffix="gset", **fields):
    """``blob`` with some header fields replaced (names as in the layout)."""
    layout, names = HEADERS[suffix]
    values = dict(zip(names, struct.unpack_from(layout, blob)))
    values.update(fields)
    return (struct.pack(layout, *(values[k] for k in names))
            + bytes(blob[struct.calcsize(layout):]))


class _BinaryFileChecks:
    """Checks every binary container passes. A subclass names its file ``suffix``
    and gives ``sample(rng)``, ``write(path, obj)`` and ``read(path)``."""

    def _sample_file(self, tmp_path, name, seed):
        path = tmp_path / f"{name}.{self.suffix}"
        self.write(path, self.sample(np.random.default_rng(seed)))
        return path, bytearray(path.read_bytes())

    def test_every_truncation_length(self, tmp_path):
        path, blob = self._sample_file(tmp_path, "cut", 20)
        for size in range(len(blob)):
            path.write_bytes(blob[:size])
            with pytest.raises(TruncationError, match=rf"cut\.{self.suffix}: "):
                self.read(path)

    def test_one_trailing_byte(self, tmp_path):
        path, blob = self._sample_file(tmp_path, "t", 21)
        path.write_bytes(blob + b"\n")
        with pytest.raises(FormatError, match=rf"t\.{self.suffix}: 1 trailing bytes"):
            self.read(path)

    def test_bad_magic(self, tmp_path):
        path, blob = self._sample_file(tmp_path, "j", 22)
        path.write_bytes(_with_header(blob, self.suffix, magic=b"GMAP"))
        with pytest.raises(FormatError, match=rf"j\.{self.suffix}: bad magic b'GMAP'"):
            self.read(path)

    @pytest.mark.parametrize("count", [3, 2**60, 2**64 - 1])
    def test_count_beyond_byte_length_is_truncation(self, tmp_path, count):
        # the length is checked before any array is built, so no count
        # reaches an allocation
        path, blob = self._sample_file(tmp_path, "big", 24)
        path.write_bytes(_with_header(blob, self.suffix, count=count))
        with pytest.raises(TruncationError, match=rf"big\.{self.suffix}: expected \d+ bytes"):
            self.read(path)

    def test_random_corruption(self, tmp_path):
        # flip 1-3 random bytes anywhere: the reader either refuses the file
        # with a format error or reads exactly what the bytes say
        path, blob = self._sample_file(tmp_path, "x", 26)
        rng = np.random.default_rng(27)
        outcomes = {"refused": 0, "read": 0}
        for _ in range(400):
            bad = bytearray(blob)
            for at in rng.integers(0, len(blob), size=rng.integers(1, 4)):
                bad[at] ^= int(rng.integers(1, 256))
            path.write_bytes(bad)
            try:
                back = self.read(path)
            except FormatError:
                outcomes["refused"] += 1
                continue
            outcomes["read"] += 1
            again = tmp_path / f"again.{self.suffix}"
            self.write(again, back)
            assert again.read_bytes() == bytes(bad)
        assert min(outcomes.values()) > 0, outcomes


class TestKernelSetFiles(_BinaryFileChecks):
    suffix = "gset"
    write = staticmethod(write_gset)

    @staticmethod
    def sample(rng):
        return _random_set(rng, n=2, channels=2, labels=True)

    @staticmethod
    def read(path):
        return read_gset(path, label_names=("left", "right"))

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

    def test_extra_record_rejected(self, tmp_path):
        gset = _random_set(np.random.default_rng(6), n=3)
        path, blob = _written(tmp_path, gset, "f.gset")
        path.write_bytes(blob + blob[-8 * 14:])
        with pytest.raises(FormatError, match=r"f\.gset: 112 trailing bytes"):
            read_gset(path)

    def test_nan_token_rejected(self, tmp_path):
        gset = _random_set(np.random.default_rng(9), n=2)
        path, blob = _written(tmp_path, gset, "i.gset")
        struct.pack_into("<d", blob, _field_offset(gset, "log_scales", row=1), float("nan"))
        path.write_bytes(blob)
        with pytest.raises(FormatError, match=r"i\.gset: log_scales contains non-finite"):
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

    def test_overflowing_quaternion_reported_with_path(self, tmp_path):
        gset = _random_set(np.random.default_rng(12), n=2)
        path, blob = _written(tmp_path, gset, "o.gset")
        struct.pack_into("<4d", blob, _field_offset(gset, "rotations", row=0), 1e200, 1e200, 0, 0)
        path.write_bytes(blob)
        with pytest.raises(FormatError, match=r"o\.gset: rotations contain a quaternion whose "
                                              r"norm overflows"):
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


class TestMappingFiles(_BinaryFileChecks):
    suffix = "uvm"
    write = staticmethod(write_mapping)

    @staticmethod
    def sample(rng):
        return _random_mapping(rng, n=2)

    @staticmethod
    def read(path):
        return read_mapping(path, (256, 256))

    def _corrupt(self, tmp_path, edit, seed=30):
        """A written sample mapping after ``edit(blob)``; returns its path."""
        path, blob = self._sample_file(tmp_path, "m", seed)
        path.write_bytes(edit(blob) or blob)
        return path

    def test_round_trip(self, tmp_path):
        uv = np.array([[0, 0], [2, 1], [1, 3]], dtype=np.int64)
        mapping = MortonMapping(resolution=(3, 4), uv=uv)
        write_mapping(tmp_path / "m.uvm", mapping)
        back = read_mapping(tmp_path / "m.uvm", resolution=(3, 4))
        assert np.array_equal(back.uv, uv)
        assert back.resolution == (3, 4)
        assert len(back) == 3
        assert back.uv.flags.c_contiguous and back.uv.flags.aligned
        assert not back.uv.flags.writeable

    def test_header_layout(self, tmp_path):
        mapping = build_mapping(np.random.default_rng(31).normal(size=(5, 3)), (3, 2), bits=4)
        write_mapping(tmp_path / "m.uvm", mapping)
        blob = (tmp_path / "m.uvm").read_bytes()
        assert struct.unpack_from(HEADERS["uvm"][0], blob) == (b"GUVM", 1, 3, 2, 5)
        assert len(blob) == 24 + 16 * 5
        assert np.array_equal(np.frombuffer(blob, "<i8", offset=24).reshape(5, 2), mapping.uv)

    @pytest.mark.parametrize("field,value,message", [
        ("version", 2, "unsupported version 2"),
        ("version", 0, "unsupported version 0"),
        ("width", 0, "bad header: 0x256 map"),
        ("height", 0, "bad header: 256x0 map"),
    ], ids=["version-2", "version-0", "width-0", "height-0"])
    def test_bad_header_field(self, tmp_path, field, value, message):
        path = self._corrupt(tmp_path, lambda blob: _with_header(blob, "uvm", **{field: value}))
        with pytest.raises(FormatError, match=rf"m\.uvm: {message}") as info:
            self.read(path)
        assert type(info.value) is FormatError

    @pytest.mark.parametrize("field,value", [("width", 255), ("height", 512)])
    def test_resolution_mismatch(self, tmp_path, field, value):
        path = self._corrupt(tmp_path, lambda blob: _with_header(blob, "uvm", **{field: value}))
        found = "255x256" if field == "width" else "256x512"
        with pytest.raises(FormatError,
                           match=rf"m\.uvm: mapping is for a {found} map, expected 256x256"):
            self.read(path)

    def test_coordinates_validated_against_resolution(self, tmp_path):
        def edit(blob):
            struct.pack_into("<q", blob, 24 + 16, 256)  # the second kernel's u
        with pytest.raises(FormatError, match=r"m\.uvm: uv coordinates fall outside the map"):
            self.read(self._corrupt(tmp_path, edit))

    def test_coordinate_beyond_int64(self, tmp_path):
        # a coordinate with the top bit set is a negative int64
        def edit(blob):
            struct.pack_into("<Q", blob, 24 + 8, 2**63)  # the first kernel's v
        with pytest.raises(FormatError, match=r"m\.uvm: uv coordinates fall outside the map"):
            self.read(self._corrupt(tmp_path, edit))

    def test_duplicate_pixel_rejected(self, tmp_path):
        def edit(blob):
            blob[24 + 16:] = blob[24:24 + 16]  # the second kernel on the first one's pixel
        with pytest.raises(FormatError, match=r"m\.uvm: uv assignment is not injective"):
            self.read(self._corrupt(tmp_path, edit))

    def test_empty_rejected(self, tmp_path):
        path = tmp_path / "m.uvm"
        path.write_bytes(struct.pack(HEADERS["uvm"][0], b"GUVM", 1, 4, 4, 0))
        with pytest.raises(FormatError, match=r"m\.uvm: bad header: 4x4 map, count 0"):
            read_mapping(path, resolution=(4, 4))
        empty = MortonMapping(resolution=(4, 4), uv=np.zeros((0, 2), dtype=np.int64))
        with pytest.raises(InvalidArgumentError, match="refusing to write a 4x4 mapping of 0"):
            write_mapping(tmp_path / "e.uvm", empty)
        assert not (tmp_path / "e.uvm").exists()

    def test_old_text_layout_rejected(self, tmp_path):
        path = tmp_path / "old.uvm"
        path.write_text("".join(f"{i} {i} 0\n" for i in range(5)))
        with pytest.raises(FormatError, match=r"old\.uvm: bad magic b'0 0 '"):
            read_mapping(path, resolution=(8, 8))


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

    @pytest.mark.parametrize("key", ["map_width", "map_height"])
    @pytest.mark.parametrize("value", [4097, 9223372036854775808])
    def test_map_side_range(self, tmp_path, key, value):
        (tmp_path / "c.cfg").write_text(f"{key}={value}\n")
        with pytest.raises(FormatError, match=rf"{key} must be in \[1, 4096\]"):
            read_config(tmp_path / "c.cfg")
        (tmp_path / "c.cfg").write_text(f"{key}=4096\n")
        assert read_config(tmp_path / "c.cfg") == {key: 4096}

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


@pytest.mark.parametrize("reader", [read_labels, read_config, read_trace],
                         ids=["labels", "config", "trace"])
def test_text_reader_refuses_non_utf8(tmp_path, reader):
    path = _written(tmp_path, _random_set(np.random.default_rng(32)), "bin.gset")[0]
    with pytest.raises(FormatError, match=r"bin\.gset: not UTF-8 text \(byte \d+\)"):
        reader(path)
