"""Rules over the library's own source."""

import ast
import sys
from pathlib import Path

import weylkit
from weylkit.rootsys import Group


def test_library_has_no_assert():
    # python -O strips assert, so every check a verdict rests on goes
    # through errors.ensure or raises a coded error
    root = Path(weylkit.__file__).parent
    found = [
        f"{path.relative_to(root)}:{node.lineno}"
        for path in sorted(root.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_harmonic_imports_only_stdlib_numpy_and_errors():
    # the analytic layer sits below the exact and bundle layers: it may use
    # the shared error codes but nothing else of the package
    path = Path(weylkit.__file__).parent / "harmonic.py"
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            found += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = ("weylkit." if node.level else "") + (node.module or "")
            found += [base] if node.module else [base + alias.name for alias in node.names]
    allowed = sys.stdlib_module_names | {"numpy"}
    bad = [n for n in found if n != "weylkit.errors" and n.split(".")[0] not in allowed]
    assert found and bad == []


def test_exact_modules_multiply_only_through_matmul():
    # the exact-only modules form no dense object @, which spends nearly all
    # of its time on zero entries: their products run on column tables
    # (linalg.product, apply_table) and sparse rows
    root = Path(weylkit.__file__).parent
    found = [
        f"{name}.py:{node.lineno}"
        for name in ("linalg", "rootsys", "repthy", "spherical", "sympoly")
        for node in ast.walk(ast.parse((root / f"{name}.py").read_text()))
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult)
    ]
    assert found == []


def _defined_or_named(tree, skip=()):
    """(line, name) for each name a tree uses, imports from a module or
    defines, leaving out the nodes inside the function definitions skip."""
    skipped = {id(sub) for node in skip for sub in ast.walk(node) if sub is not node}
    out = []
    for node in ast.walk(tree):
        if id(node) in skipped:
            continue
        if isinstance(node, ast.Name):
            out.append((node.lineno, node.id))
        elif isinstance(node, ast.Attribute):
            out.append((node.lineno, node.attr))
        elif isinstance(node, ast.ImportFrom):
            out += [(node.lineno, alias.asname or alias.name) for alias in node.names]
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            out.append((node.lineno, node.name))
    return out


def test_dense_helpers_stay_out_of_the_library():
    # below the dense public boundary every matrix is a column table and
    # every vector a sparse dict, so the dense helpers live only in the
    # tests' weyl_references; and the exact half of involution (all above
    # the Phi-function section) makes no dense array, but for the complex
    # array of nu that AntilinearMap.matrix_complex makes for the analytic
    # mu maps
    root = Path(weylkit.__file__).parent
    gone = {"combine", "matmul", "is_zero", "fmat"}
    found = [
        f"{path.name}:{line} {name}"
        for path in sorted(root.rglob("*.py"))
        for line, name in _defined_or_named(ast.parse(path.read_text()))
        if name in gone
    ]
    head, marker, _ = (root / "involution.py").read_text().partition("# ---- Phi functions")
    exact = ast.parse(head)
    boundary = [
        node
        for cls in exact.body
        if isinstance(cls, ast.ClassDef) and cls.name == "AntilinearMap"
        for node in cls.body
        if isinstance(node, ast.FunctionDef) and node.name == "matrix_complex"
    ]
    dense = {"np", "eye", "zeros", "densify"}
    found += [f"involution.py:{line} {name}" for line, name in _defined_or_named(exact, boundary) if name in dense]
    assert marker and len(boundary) == 1
    assert found == []


TABLE_KERNEL = (
    "Table",
    "apply_table",
    "image",
    "identity",
    "int_tables",
    "table_sum",
    "product",
    "commutator",
    "entries",
)


def test_table_kernel_lives_only_in_linalg():
    # one column-table kernel: linalg defines each op, no other module
    # defines one (a function, class or method of that name, or a
    # module-level assignment) or imports one from anywhere but linalg, and
    # involution keeps none of its former private copies
    root = Path(weylkit.__file__).parent
    defined, found = set(), []
    for path in sorted(root.rglob("*.py")):
        tree = ast.parse(path.read_text())
        names = [
            (node.lineno, node.name)
            for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        ]
        names += [
            (node.lineno, target.id)
            for node in tree.body
            if isinstance(node, (ast.Assign, ast.AnnAssign))
            for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
            if isinstance(target, ast.Name)
        ]
        if path.name == "linalg.py":
            defined = {name for _, name in names}
            continue
        found += [f"{path.name}:{line} defines {name}" for line, name in names if name in TABLE_KERNEL]
        found += [
            f"{path.name}:{node.lineno} imports {alias.name} from {node.module}"
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level and node.module != "linalg"
            for alias in node.names
            if alias.name in TABLE_KERNEL
        ]
        if path.name == "involution.py":
            copies = {"_apply", "_identity", "_table_sum", "combination"}
            found += [f"involution.py:{line} defines {name}" for line, name in names if name in copies]
    assert set(TABLE_KERNEL) <= defined
    assert found == []


CHARACTER_LAYER = {
    "sympoly": ("sym_power_characters",),
    "repthy": (
        "weyl_dim",
        "weight_multiplicities",
        "decompose_character",
        "convolve_characters",
        "module_character",
    ),
}


def test_character_layer_is_integer_only():
    # characters, Weyl dimensions and Freudenthal multiplicities are integer
    # arithmetic: no exact rational scalar or matrix in any of them, and no
    # rational weight form left on Group
    root = Path(weylkit.__file__).parent
    rational = {"Fraction", "fr", "F0", "F1", "fvec", "matmul"}
    found, seen = [], []
    for name, functions in CHARACTER_LAYER.items():
        for node in ast.parse((root / f"{name}.py").read_text()).body:
            if isinstance(node, ast.FunctionDef) and node.name in functions:
                seen.append(node.name)
                found += [
                    f"{name}.{node.name}:{sub.lineno} {sub.id if isinstance(sub, ast.Name) else sub.attr}"
                    for sub in ast.walk(node)
                    if isinstance(sub, ast.Name) and sub.id in rational
                    or isinstance(sub, ast.Attribute) and sub.attr in rational
                ]
    assert sorted(seen) == sorted(f for fs in CHARACTER_LAYER.values() for f in fs)
    assert found == []
    assert not hasattr(Group, "wform") and not hasattr(Group, "_wform_matrix")


SPARSE_ELIMINATION = {
    "linalg": ("eliminate", "SpanBasis"),
    "rootsys": ("Subalgebra.reduce", "Subalgebra.coords", "Subalgebra.contains", "Subalgebra.is_closed", "verma_walk", "root_vectors"),
    "repthy": ("_build_irreducible",),
}


def _names_in(name, targets, names):
    """'module.target:line name' for each use of one of names (a bare name
    or an attribute) in the body of each target, a function or a
    Class.method of the library module name."""
    tree = ast.parse((Path(weylkit.__file__).parent / f"{name}.py").read_text())
    nodes = {node.name: node for node in tree.body if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    for cls in [n for n in tree.body if isinstance(n, ast.ClassDef)]:
        nodes.update({f"{cls.name}.{n.name}": n for n in cls.body if isinstance(n, ast.FunctionDef)})
    return [
        f"{name}.{target}:{sub.lineno} {sub.id if isinstance(sub, ast.Name) else sub.attr}"
        for target in targets
        for stmt in nodes[target].body
        for sub in ast.walk(stmt)
        if isinstance(sub, ast.Name) and sub.id in names
        or isinstance(sub, ast.Attribute) and sub.attr in names
    ]


def test_elimination_stays_off_object_arrays():
    # the reduction loop, the span bookkeeping, subspace membership, the
    # closure check, the Verma walk and the module builder run on sparse
    # {position: entry} rows: no dense object array (zeros, fvec, np), dense
    # combination or dense zero test in their bodies (an np.ndarray
    # annotation marks a public boundary, not a use)
    dense = {"zeros", "combine", "is_zero", "fvec", "np"}
    assert sum(len(targets) for targets in SPARSE_ELIMINATION.values()) == 9
    found = [f for name, targets in SPARSE_ELIMINATION.items() for f in _names_in(name, targets, dense)]
    assert found == []


def test_invariant_count_reads_the_column_tables():
    # invariant_multiplicity ranks sparse rows read from the module's column
    # tables: no dense Module.action matrix, numpy stack or dense nullspace
    assert _names_in("sympoly", ("invariant_multiplicity",), {"action", "np", "nullspace"}) == []


def test_sphericality_trial_stays_integer_and_sparse():
    # a trial runs on int structure constants and sparse int columns, and
    # one SpanBasis counts its rank: no rational scalar, dense object array,
    # dense torus matrix or dense rank is made in it, and h's rows come
    # already int (Subalgebra._int_rows), not cleared again in every trial
    rational_or_dense = {"Fraction", "fr", "zeros", "column_stack", "fmat", "torus_ad", "rank", "integral"}
    assert _names_in("spherical", ("_adjoint_of_sample", "_certifies"), rational_or_dense) == []


def test_exact_kernels_are_taken_from_sparse_columns():
    # every exact kernel is nullspace of the map's sparse columns: no
    # Kronecker block, dense stack, densified system or dense ad x is built
    dense_stack = {"kron", "vstack", "column_stack", "densify", "ad"}
    kernels = {
        "involution": ("_nu_kernel", "_centralizer_in_h", "is_adapted"),
        "spherical": ("normalizer",),
        "rootsys": ("verma_walk", "root_vectors"),
        "repthy": ("_build_irreducible",),
    }
    assert [f for name, targets in kernels.items() for f in _names_in(name, targets, dense_stack)] == []


def test_module_builder_reads_no_structure_constants():
    # every root vector of a module comes from its own simple e_i and f_i by
    # rootsys.root_vectors: the builder never reads the bracket table
    assert _names_in("repthy", ("_build_irreducible",), {"_ad_columns"}) == []


def test_bundle_layer_reads_column_tables():
    # the fiber check, the intertwiner system, its identity test and the
    # certificate's equivariance check read the fiber's column tables: no
    # dense combination, column stack, dense solve or Module.action matrix
    dense = {"combine", "column_stack", "solve", "action"}
    targets = ("HModule", "_nu_kernel", "solve_nu", "BundleCertificate.verify")
    assert _names_in("involution", targets, dense) == []


def test_reduction_and_tensor_action_form_no_fraction():
    # the reduction loop and the span's add and membership test run on int
    # rows: no Fraction is formed in them (SpanBasis.express forms one per
    # coordinate it returns).  The module builder keeps no tensor action:
    # it writes Fraction tables from its signatures, so it is not a target
    rational = {"Fraction", "fr", "F0", "F1"}
    targets = {"linalg": ("eliminate", "SpanBasis.add", "SpanBasis.contains")}
    assert [f for name, ts in targets.items() for f in _names_in(name, ts, rational)] == []


def test_one_module_builder():
    # L(lambda) is built from lambda alone: no tensor-product extraction or
    # chain of intermediate modules is kept beside the Verma quotient
    tree = ast.parse((Path(weylkit.__file__).parent / "repthy.py").read_text())
    defined = {node.name for node in ast.walk(tree) if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    assert "_build_irreducible" in defined
    assert defined & {"_tensor_apply", "_extract_submodule", "_build_ss"} == set()


# (module, name) -> why a top-level import may stay unused in its module
UNUSED_IMPORTS = {
    ("repthy", "rref"): "the benchmark tracer and its tests patch repthy.rref",
}


def test_library_imports_are_used():
    # no linter is installed, so this rule stands in for one: every name a
    # module imports at top level is read somewhere in that module
    root = Path(weylkit.__file__).parent
    unused = set()
    for path in sorted(root.rglob("*.py")):
        tree = ast.parse(path.read_text())
        bound = set()
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module != "__future__":
                bound |= {alias.asname or alias.name for alias in node.names}
            elif isinstance(node, ast.Import):
                bound |= {(alias.asname or alias.name).split(".")[0] for alias in node.names}
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused |= {(path.stem, name) for name in bound if name not in read}
    assert unused == set(UNUSED_IMPORTS)


def test_group_setup_and_reductivity_test_stay_int_and_sparse():
    # the structure constants come from int seed entries indexed by row, and
    # the reductivity test reads the invariant form's sparse int entries: no
    # dense array, rational scalar or dense form is made or read in them
    dense_or_rational = {"np", "densify", "zeros", "Fraction", "fr", "invariant_form", "killing_form"}
    found = _names_in("rootsys", ("Group._ad_columns",), dense_or_rational)
    found += _names_in("sympoly", ("check_reductive",), dense_or_rational)
    assert found == []


def test_subalgebras_are_built_from_sparse_rows():
    # a Subalgebra keeps sparse rows and densifies its basis only when read,
    # and the standard names pass sparse {position: 1} vectors
    dense = {"densify", "zeros", "gen_vector"}
    found = _names_in("rootsys", ("Subalgebra.__init__", "standard_subalgebra"), dense)
    assert found == []


def test_chevalley_table_is_int():
    # theta's signed permutation holds int -1, so theta, tau and sigma apply on ints
    assert _names_in("involution", ("_chevalley_table",), {"fr"}) == []
