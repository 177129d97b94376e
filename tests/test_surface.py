"""Every public name of ``src/bevkit`` has a reader in the library or the benchmark.

A public name is a top-level function, class or assignment of a
``bevkit`` module, or a method, property or field of one of its
classes, whose name does not start with ``_``.  Its readers are found
with ``ast`` in ``src/bevkit`` and ``bench/``:

* a top-level name is read by a load of it in its own module, by a
  ``from ... import`` of it, or by an attribute access ``x.name``;
* a class attribute is read by an attribute access ``x.attr``; when
  ``x`` is another bevkit class by name (``Pose2.identity``), the access
  reads only that class's attribute.

The match is by name, so it can see a reader where there is none; a
read through a string (``getattr``, an entry point) it does not see.  A
name with no reader is either deleted or listed in ``KEPT`` with the
reason it stays.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "bevkit"
BENCH = ROOT / "bench"

# Public names that nothing in src/bevkit or bench/ reads, and why each stays.
KEPT = {
    "flow.FlowStats.frac_below": "FlowStats's one method; flow_error_map returns the stats beside the map",
    "correlation.channel_index": "the inverse of channel_offset: where displacement (dx, dy) lives in a volume",
    "correlation.peak_displacement": "the readout of a correlation volume",
    "formats.parse_pairs_csv": "the reader of the format write_pairs_csv writes",
    "geometry.vehicle_to_pixel": "the inverse of pixel_to_vehicle; lss bins its checked frustum without the check",
}


def public_surface(src: Path) -> dict:
    """``{"module.name" or "module.Class.attr": (module, class or None, name)}`` of every public name."""
    surface = {}
    for path in sorted(src.glob("*.py")):
        module = path.stem
        for node in ast.parse(path.read_text()).body:
            for name in _defined(node):
                surface[f"{module}.{name}"] = (module, None, name)
            if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                for member in node.body:
                    for attr in _defined(member):
                        surface[f"{module}.{node.name}.{attr}"] = (module, node.name, attr)
    return surface


def _defined(node) -> list[str]:
    """The public names a module- or class-level statement defines."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        names = [node.name]
    elif isinstance(node, ast.Assign):
        names = [t.id for t in node.targets if isinstance(t, ast.Name)]
    elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
        names = [node.target.id]
    else:
        names = []
    return [n for n in names if not n.startswith("_")]


def readers(src: Path, bench: Path, classes: set[str]):
    """What the files of ``src`` and ``bench`` read.

    Returns the (module, name) loads in ``src``, the imported names, the
    attributes read from an unknown owner, and the (class, attribute)
    pairs read from a class by name.
    """
    loads, imported, attrs, class_attrs = set(), set(), set(), set()
    for path in [*src.glob("*.py"), *bench.glob("*.py")]:
        module = path.stem if path.parent == src else None
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and module:
                loads.add((module, node.id))
            elif isinstance(node, ast.ImportFrom):
                imported.update(alias.name for alias in node.names)
            elif isinstance(node, ast.Attribute):
                owner = node.value.id if isinstance(node.value, ast.Name) else None
                if owner in classes:
                    class_attrs.add((owner, node.attr))
                else:
                    attrs.add(node.attr)
    return loads, imported, attrs, class_attrs


def unread_names(src: Path = SRC, bench: Path = BENCH) -> set[str]:
    """Keys of :func:`public_surface` that no file of ``src`` or ``bench`` reads."""
    surface = public_surface(src)
    classes = {cls for _, cls, _ in surface.values() if cls}
    loads, imported, attrs, class_attrs = readers(src, bench, classes)
    unread = set()
    for key, (module, cls, name) in surface.items():
        if cls is None:
            read = (module, name) in loads or name in imported or name in attrs
        else:
            read = name in attrs or (cls, name) in class_attrs
        if not read:
            unread.add(key)
    return unread


def test_every_public_name_has_a_reader_or_a_reason():
    missing = sorted(unread_names() - KEPT.keys())
    assert not missing, f"public names with no reader in src/bevkit or bench/: {missing}"


def test_kept_names_exist_and_are_still_unread():
    surface = public_surface(SRC)
    gone = sorted(KEPT.keys() - surface.keys())
    assert not gone, f"KEPT names that no longer exist: {gone}"
    read = sorted(KEPT.keys() - unread_names())
    assert not read, f"KEPT names that have gained a reader: {read}"


def test_no_public_name_is_defined_in_two_modules():
    homes = {}
    for module, cls, name in public_surface(SRC).values():
        if cls is None:
            homes.setdefault(name, []).append(module)
    assert {name: mods for name, mods in homes.items() if len(mods) > 1} == {}


def test_only_text_imports_numbers():
    # the scalar rule of JSON fields and library arguments lives in bevkit.text
    # alone; a module that imports numbers is writing a rule of its own
    importers = set()
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            names = [a.name for a in node.names] if isinstance(node, ast.Import) else []
            if "numbers" in names or isinstance(node, ast.ImportFrom) and node.module == "numbers":
                importers.add(path.name)
    assert importers - {"text.py"} == set()


# The only arrays a module other than text.py may freeze: ones its own function built.
OWN_FREEZES = {
    "lss.build_frustum": "the frustum points it computes",
    "correlation.CorrelationVolume._adopt": "the volume local_correlation fills, adopted without a copy",
    "geometry.relative_pose": "the product it forms, wrapped without a copy once the rigid rule passes it",
}


def freezes(src: Path) -> set[str]:
    """``"module.function"`` of every ``<x>.flags.writeable = False`` outside ``text.py``."""
    found = set()

    def visit(node, module, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, module, scope + [child.name])
                continue
            if isinstance(child, ast.Assign) and isinstance(child.value, ast.Constant) and child.value.value is False:
                for target in child.targets:
                    if (isinstance(target, ast.Attribute) and target.attr == "writeable"
                            and isinstance(target.value, ast.Attribute) and target.value.attr == "flags"):
                        found.add(".".join([module, *scope]))
            visit(child, module, scope)

    for path in src.glob("*.py"):
        if path.name != "text.py":
            visit(ast.parse(path.read_text()), path.stem, [])
    return found


def test_only_text_freezes_an_argument():
    # how the library takes an array lives in bevkit.text.check_array: a module
    # that freezes an array it was handed is writing a rule of its own
    assert freezes(SRC) == OWN_FREEZES.keys()


def test_freeze_guard_sees_a_frozen_argument(tmp_path):
    (tmp_path / "text.py").write_text("def check(a):\n    a.flags.writeable = False\n")
    (tmp_path / "mod.py").write_text(
        "class Box:\n"
        "    def __post_init__(self):\n"
        "        d = self.data.copy()\n"
        "        d.flags.writeable = False\n"
        "def fine(a):\n"
        "    a.flags.writeable = True\n"
    )
    assert freezes(tmp_path) == {"mod.Box.__post_init__"}


# The only classes whose arrays check_array keeps in float32: a float32 feature map correlates in float32.
FLOAT32_KEEPERS = {"correlation.FeatureMap", "correlation.CorrelationVolume"}


def float32_keepers(src: Path) -> set[str]:
    """``"module.Name"`` of the top-level class or function around every call given ``keep_float32``."""
    found = set()
    for path in src.glob("*.py"):
        for top in ast.parse(path.read_text()).body:
            for node in ast.walk(top):
                if isinstance(node, ast.Call) and any(k.arg == "keep_float32" for k in node.keywords):
                    found.add(f"{path.stem}.{getattr(top, 'name', '<module>')}")
    return found


def test_only_the_correlation_classes_keep_float32():
    # every other caller of check_array keeps its float64 copy and its bits
    assert float32_keepers(SRC) == FLOAT32_KEEPERS


def test_float32_guard_sees_a_keeper(tmp_path):
    (tmp_path / "mod.py").write_text(
        "class Box:\n"
        "    def __post_init__(self):\n"
        "        check_array('x', self.data, None, keep_float32=True)\n"
        "def plain(a):\n"
        "    return check_array('a', a, None)\n"
    )
    assert float32_keepers(tmp_path) == {"mod.Box"}


# The only public functions outside text.py that convert an array argument themselves, and why.
OWN_CONVERSIONS = {
    "geometry.invert_rigid": "the hot path of pair mining, segment metrics and relative_pose, unchecked by design",
    "bvt1.write_bvt1": "check_array's copy would add a second r5 volume, 7.9 MB in float32, to correlate's peak",
}
CONVERTERS = ("asarray", "array", "ascontiguousarray")


def _named(node):
    """The name of ``x`` or of ``x[...]``, else None."""
    node = node.value if isinstance(node, ast.Subscript) else node
    return node.id if isinstance(node, ast.Name) else None


def conversions(src: Path) -> set[str]:
    """``"module.function"`` of every public function outside ``text.py`` that converts a parameter with a dtype.

    A conversion is ``np.asarray``, ``np.array`` or ``np.ascontiguousarray``
    of one of the function's own parameters, or of a subscript of one, given
    a dtype by keyword or position.  A function is public when no name on
    its path starts with ``_``.
    """
    found = set()

    def visit(node, module, scope, params):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, module, scope + [child.name], set())
                continue
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                a = child.args
                own = {p.arg for p in [*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg] if p}
                visit(child, module, scope + [child.name], own)
                continue
            if (isinstance(child, ast.Call) and isinstance(child.func, ast.Attribute)
                    and isinstance(child.func.value, ast.Name) and child.func.value.id == "np"
                    and child.func.attr in CONVERTERS and child.args
                    and _named(child.args[0]) in params
                    and (len(child.args) > 1 or any(k.arg == "dtype" for k in child.keywords))
                    and not any(name.startswith("_") for name in scope)):
                found.add(".".join([module, *scope]))
            visit(child, module, scope, params)

    for path in src.glob("*.py"):
        if path.name != "text.py":
            visit(ast.parse(path.read_text()), path.stem, [], set())
    return found


def test_only_text_converts_an_argument():
    # how the library takes an array lives in bevkit.text.check_array: a public
    # function that converts an array it was handed is writing a rule of its own
    assert conversions(SRC) == OWN_CONVERSIONS.keys()


def test_conversion_guard_sees_a_converted_argument(tmp_path):
    (tmp_path / "text.py").write_text("import numpy as np\ndef check(a):\n    return np.asarray(a, dtype=float)\n")
    (tmp_path / "mod.py").write_text(
        "import numpy as np\n"
        "def by_keyword(u, v):\n"
        "    return np.asarray(u, dtype=float)\n"
        "def by_position(*, m):\n"
        "    return np.array(m, float)\n"
        "def by_block(a, i):\n"
        "    return np.ascontiguousarray(a[i:i + 2], dtype='<f4')\n"
        "class Box:\n"
        "    def load(self, data):\n"
        "        return np.ascontiguousarray(data, dtype='<f4')\n"
        "    def _private(self, data):\n"
        "        return np.asarray(data, dtype=float)\n"
        "def no_dtype(a):\n"
        "    return np.asarray(a)\n"
        "def own_array(n):\n"
        "    x = [n]\n"
        "    return np.asarray(x, dtype=float)\n"
        "def _helper(a):\n"
        "    return np.asarray(a, dtype=float)\n"
    )
    assert conversions(tmp_path) == {"mod.by_keyword", "mod.by_position", "mod.by_block", "mod.Box.load"}


# The only functions that take a determinant with np.linalg.det, and why: every rotation verdict comes from
# geometry.rotation_error, whose det is a cofactor expansion with the same bits on one block and on a stack.
OWN_DETERMINANTS = {
    "geometry.proper_rotation": "the sign of U V^T chooses the reflection fix, not a verdict on a rotation",
    "formats.matrix_to_quat": "scipy's codec rule, which refuses a nonpositive determinant as scipy does",
}


def call_sites(src: Path, matches) -> set[str]:
    """``"module.function"`` of every call ``c`` in ``src`` for which ``matches(c)`` holds."""
    found = set()

    def visit(node, module, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, module, scope + [child.name])
                continue
            if isinstance(child, ast.Call) and matches(child):
                found.add(".".join([module, *scope]))
            visit(child, module, scope)

    for path in src.glob("*.py"):
        visit(ast.parse(path.read_text()), path.stem, [])
    return found


def linalg_callers(src: Path, attr: str) -> set[str]:
    """``"module.function"`` of every call of ``<x>.linalg.<attr>`` in ``src``."""
    def matches(call):
        func = call.func
        return (isinstance(func, ast.Attribute) and func.attr == attr
                and isinstance(func.value, ast.Attribute) and func.value.attr == "linalg")

    return call_sites(src, matches)


def test_one_rotation_rule():
    # a determinant taken anywhere else is a rotation rule of its own, whose last
    # bits may differ from the rule's and so move a verdict at the tolerance
    assert linalg_callers(SRC, "det") == OWN_DETERMINANTS.keys()


def test_no_lu_solve_of_a_pose():
    # a rigid pose is inverted as [R^T | -R^T t] by geometry.invert_rigid; an LU
    # solve inverts any invertible matrix, so it measures a non-rigid pose silently
    assert linalg_callers(SRC, "solve") == set()


def test_determinant_guard_sees_a_determinant(tmp_path):
    (tmp_path / "mod.py").write_text(
        "import numpy as np\n"
        "def judge(r):\n"
        "    return np.linalg.det(r) > 0.0\n"
        "class Box:\n"
        "    def check(self):\n"
        "        def inner():\n"
        "            return numpy.linalg.det(self.r)\n"
        "        return inner()\n"
        "def norm_only(r):\n"
        "    return np.linalg.norm(r)\n"
        "def relative(a, b):\n"
        "    return np.linalg.solve(a, b)\n"
    )
    assert linalg_callers(tmp_path, "det") == {"mod.judge", "mod.Box.check.inner"}
    assert linalg_callers(tmp_path, "solve") == {"mod.relative"}


# The only callers of proper_rotation, and why: a drifted block of a pose stack is repaired by
# geometry.repair_rotations, so the rule that picks the blocks to repair is written once.
ROTATION_REPAIRERS = {
    "geometry.fit_similarity": "the closest rotation to the covariance is the fit itself, not a repair",
    "geometry.repair_rotations": "the one repair: each block of a stack whose drift passes the tolerance",
    "geometry.relative_pose": "its one product, repaired on the drift it has already computed",
    "formats.matrix_to_quat": "scipy's codec rule, which projects from a drift of about 1e-12",
}


def callers_of(src: Path, name: str) -> set[str]:
    """``"module.function"`` of every call of ``name(...)`` or ``<x>.name(...)`` in ``src``."""
    def matches(call):
        func = call.func
        return isinstance(func, ast.Name) and func.id == name or isinstance(func, ast.Attribute) and func.attr == name

    return call_sites(src, matches)


def test_one_rotation_repair():
    # a loop of proper_rotation calls elsewhere is a repair rule of its own, which
    # would have to pick the blocks repair_rotations picks and be kept equal to it by hand
    assert callers_of(SRC, "proper_rotation") == ROTATION_REPAIRERS.keys()


def test_repair_guard_sees_a_caller(tmp_path):
    (tmp_path / "mod.py").write_text(
        "import geometry\n"
        "from geometry import proper_rotation\n"
        "def parse(rot):\n"
        "    for i in range(len(rot)):\n"
        "        rot[i] = proper_rotation(rot[i])[0]\n"
        "class Box:\n"
        "    def fix(self):\n"
        "        return geometry.proper_rotation(self.r)\n"
        "def named_only():\n"
        "    return proper_rotation\n"
        "def other(r):\n"
        "    return improper_rotation(r)\n"
    )
    assert callers_of(tmp_path, "proper_rotation") == {"mod.parse", "mod.Box.fix"}


# The only functions that take the largest magnitude of an array, and why: a reduction guarded against leaving
# the float range goes through geometry._scale_safe, so its rescue is written once.
OWN_LARGEST_MAGNITUDES = {
    "geometry._scale_safe": "the one rule: f(x) out of range from finite, nonzero x becomes m * f(x / m)",
    "geometry.fit_similarity": "the covariance is bilinear in two centred sets: each is divided by its own m, "
                               "and the scale is multiplied by m_q / m_p",
    "losses._direction": "a direction is (t / m) / ||t / m||, so m divides and is never multiplied back",
    "synth.synth_trajectory": "names the larger of two corruptions in its error message; it divides nothing",
    "cli._cmd_flow_make": "reports the largest flow component in the command's JSON; it divides nothing",
}


def _is_abs(node) -> bool:
    """Whether ``node`` is a call ``abs(...)``, ``<x>.abs(...)``, ``<x>.absolute(...)`` or ``<x>.fabs(...)``."""
    func = node.func if isinstance(node, ast.Call) else None
    return (isinstance(func, ast.Name) and func.id == "abs"
            or isinstance(func, ast.Attribute) and func.attr in ("abs", "absolute", "fabs"))


def largest_magnitudes(src: Path) -> set[str]:
    """``"module.function"`` of every ``<x>.abs(...).max(...)`` or ``<x>.max(<x>.abs(...))`` in ``src``, also with
    the builtin ``abs``."""
    def matches(call):
        func = call.func
        return isinstance(func, ast.Attribute) and func.attr in ("max", "amax") and (
            _is_abs(func.value) or call.args and _is_abs(call.args[0]))

    return call_sites(src, matches)


def test_one_scale_safe_rule():
    # a rescue written by hand is a second copy of the rule, which the next fix
    # (an underflow mirror, a finiteness test) would have to find and repeat
    assert largest_magnitudes(SRC) == OWN_LARGEST_MAGNITUDES.keys()


def test_largest_magnitude_guard_sees_a_rescue(tmp_path):
    (tmp_path / "mod.py").write_text(
        "import numpy as np\n"
        "def rms(x):\n"
        "    m = float(np.abs(x).max())\n"
        "    return m * np.sqrt(np.mean((x / m) ** 2))\n"
        "class Box:\n"
        "    def norm(self):\n"
        "        return (lambda t: numpy.max(numpy.absolute(t)))(self.t)\n"
        "def row_tops(x):\n"
        "    return np.fabs(x).max(axis=1)\n"
        "def largest(x):\n"
        "    return np.max(x)\n"
        "def report(flow):\n"
        "    return float(abs(flow).max())\n"
        "def spread(x):\n"
        "    return np.abs(x.max())\n"
    )
    assert largest_magnitudes(tmp_path) == {"mod.rms", "mod.Box.norm", "mod.row_tops", "mod.report"}


def numpy_hypot_callers(src: Path) -> set[str]:
    """``"module.function"`` of every call of ``np.hypot(...)`` or ``numpy.hypot(...)`` in ``src``."""
    def matches(call):
        func = call.func
        return (isinstance(func, ast.Attribute) and func.attr == "hypot"
                and isinstance(func.value, ast.Name) and func.value.id in ("np", "numpy"))

    return call_sites(src, matches)


def test_no_hand_written_length_rescue():
    # np.hypot scales each pair by itself, a rescue of its own beside _scale_safe's rule; a length that
    # may leave the float range or fall below where squares turn subnormal goes through that rule.
    # math.hypot, one Python pair at a time, gives the pair's bits and is no rescue.
    assert numpy_hypot_callers(SRC) == set()


def test_hypot_guard_sees_a_caller(tmp_path):
    (tmp_path / "mod.py").write_text(
        "import math\n"
        "import numpy as np\n"
        "def epe(d):\n"
        "    return np.hypot(d[0], d[1])\n"
        "class Box:\n"
        "    def length(self):\n"
        "        return numpy.hypot(*self.t)\n"
        "def pair(a, b):\n"
        "    return math.hypot(a, b)\n"
        "def named_only():\n"
        "    return np.hypot\n"
    )
    assert numpy_hypot_callers(tmp_path) == {"mod.epe", "mod.Box.length"}


def test_io_offers_every_name_the_bench_reads_through_it():
    import bevkit.io

    read = set()
    for path in BENCH.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "bevio":
                read.add(node.attr)
    # and nothing more: the package itself imports the modules that hold them
    assert sorted(bevkit.io.__all__) == sorted(read)
    assert all(hasattr(bevkit.io, name) for name in read)


def test_guard_sees_a_name_read_only_by_a_test(tmp_path):
    src = tmp_path / "src"
    src.mkdir()
    (src / "mod.py").write_text(
        "class Box:\n"
        "    size: int\n"
        "    def used(self): return self.size\n"
        "    def spare(self): pass\n"
        "class Other:\n"
        "    @staticmethod\n"
        "    def spare(): pass\n"
        "def helper(): return Box(1).used() + Other.spare()\n"
        "def debug_dump(): pass\n"
        "LIMIT = 3\n"
        "def _private(): return LIMIT\n"
    )
    bench = tmp_path / "bench"
    bench.mkdir()
    (bench / "run.py").write_text("from bevkit.mod import helper\nhelper()\n")
    assert unread_names(src, bench) == {"mod.debug_dump", "mod.Box.spare"}
