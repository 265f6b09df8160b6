"""No public name exists only for tests, numpy is the only dependency,
every exception class belongs to the taxonomy in `errors.py`, and only
`parallel.py` reaches into numpy's BLAS library or handles threads.

Every name that `cogent/__init__.py` re-exports, and every name in
`tensor.__all__`, must be used by the package's own code outside
`__init__.py`: imported by another module (`from .x import name`) or read
as a name in the module that defines it. Every named public `Tensor` method
and property must be called by package code in a tiny pretraining run.
"""

import ast
import builtins
import os
import re
import subprocess
import sys
from pathlib import Path

import cogent
from cogent import tensor, trainer
from cogent.config import resolve_config, settings_from_config
from cogent.data import DatasetMeta, gen_synthetic
from cogent.tensor import Tensor

SRC = Path(cogent.__file__).parent


def exported_names() -> set[str]:
    tree = ast.parse((SRC / "__init__.py").read_text(encoding="utf-8"))
    imported = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    return imported | set(tensor.__all__)


def referenced_names() -> set[str]:
    used = set()
    for path in SRC.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level > 0:
                used.update(alias.name for alias in node.names)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
    return used


def test_every_export_is_used_by_the_package():
    unused = sorted(exported_names() - referenced_names())
    assert unused == [], f"exported but only tests use them: {unused}"


def test_every_public_tensor_method_is_called_by_the_package(monkeypatch, tmp_path):
    # numpy arrays share most of these names, so a search of the source
    # cannot tell a Tensor call from an array call; record the calls instead
    called = set()

    def recording(name, fn):
        def wrapper(*args, **kwargs):
            if sys._getframe(1).f_globals["__name__"].startswith("cogent."):
                called.add(name)
            return fn(*args, **kwargs)

        return wrapper

    public = {
        name: attr
        for name, attr in vars(Tensor).items()
        if not name.startswith("_") and (callable(attr) or isinstance(attr, property))
    }
    for name, attr in public.items():
        if isinstance(attr, property):
            monkeypatch.setattr(Tensor, name, property(recording(name, attr.fget)))
        else:
            monkeypatch.setattr(Tensor, name, recording(name, attr))
    meta = DatasetMeta(T=16, D=1, num_classes=2, name="surface")
    corpus = gen_synthetic(tmp_path, meta, per_class=4, seed=0, sigma=0.1)
    overrides = {
        "patch.L": "4",
        "model.d_model": "8",
        "model.n_heads": "2",
        "model.proj_dim": "4",
        "train.batch_size": "4",
        "train.epochs_pretrain": "1",
    }
    settings = settings_from_config(resolve_config(None, overrides, env={}), meta)
    trainer.pretrain(corpus, settings)
    assert sorted(set(public) - called) == [], "no package code calls these"


def test_import_loads_no_scipy():
    # numpy is the only dependency; scipy once came in for gelu's erf
    code = "import sys, cogent, cogent.cli; print('scipy' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(SRC.parent)},
        capture_output=True, text=True, check=True,
    )
    assert out.stdout.strip() == "False"


def test_no_module_imports_scipy():
    importers = []
    for path in SRC.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(n.split(".")[0] == "scipy" for n in names):
                importers.append(path.name)
    assert importers == []


def module_trees():
    return {
        path.name: ast.parse(path.read_text(encoding="utf-8"))
        for path in SRC.glob("*.py")
    }


def test_config_does_not_import_the_training_stack():
    # the flat keys are the contract between the stages, so the module that
    # owns them sits below everything that trains, checks or parses argv
    imported = set()
    for node in ast.walk(module_trees()["config.py"]):
        if isinstance(node, ast.ImportFrom):
            modules = [node.module] if node.module else []
            imported.update(m.split(".")[-1] for m in modules)
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            imported.update(alias.name.split(".")[-1] for alias in node.names)
    assert imported & {"trainer", "cli", "selfcheck"} == set()


def test_only_model_builds_model_params():
    builders = {
        name
        for name, tree in module_trees().items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", getattr(node.func, "attr", None)) == "ModelParams"
    }
    assert builders == {"model.py"}


def test_only_errors_defines_exception_classes():
    # the CLI maps the classes of errors.py to exit codes; an exception class
    # defined elsewhere would end in a traceback instead
    builtin_exceptions = {
        name
        for name, value in vars(builtins).items()
        if isinstance(value, type) and issubclass(value, BaseException)
    }
    defined = []
    for name, tree in module_trees().items():
        for node in ast.walk(tree):
            if name == "errors.py" or not isinstance(node, ast.ClassDef):
                continue
            bases = {getattr(b, "id", getattr(b, "attr", "")) for b in node.bases}
            if bases & builtin_exceptions or any(
                b.endswith(("Error", "Exception")) for b in bases
            ):
                defined.append(f"{name}: {node.name}")
    assert defined == []


def _writes_float32_max(node) -> bool:
    """`finfo(<float32>).max`, a 3.4028...e38 literal or a `_FLOAT32_MAX` name."""
    if isinstance(node, ast.Attribute) and node.attr == "max":
        source = ast.unparse(node.value)
        return "finfo(" in source and "float32" in source
    if isinstance(node, ast.Constant) and isinstance(node.value, float):
        return 3.4028e38 <= abs(node.value) <= 3.4029e38
    return isinstance(node, ast.Name) and node.id == "_FLOAT32_MAX"


def test_only_errors_writes_the_float32_maximum():
    # every range check bounds by errors.FLOAT32_MAX, so there is one copy
    writers = sorted(
        name
        for name, tree in module_trees().items()
        if name != "errors.py" and any(_writes_float32_max(n) for n in ast.walk(tree))
    )
    assert writers == []


# a symbol of the library, such as "scipy_openblas_set_num_threads64_", or the
# library file's name; prose writes "OpenBLAS"
OPENBLAS_SYMBOL = re.compile(r"_openblas|openblas_|^openblas$")


def _reaches_blas(node) -> bool:
    """An import of `ctypes`, or a name or string naming an OpenBLAS symbol."""
    if isinstance(node, ast.Import):
        return any(alias.name.split(".")[0] == "ctypes" for alias in node.names)
    if isinstance(node, ast.ImportFrom):
        return (node.module or "").split(".")[0] == "ctypes"
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        text = node.value
    else:
        text = getattr(node, "id", getattr(node, "attr", None))
    return isinstance(text, str) and OPENBLAS_SYMBOL.search(text) is not None


def test_only_parallel_reaches_the_blas_library():
    # parallel pins BLAS to one thread, and the GEMM paths read its flag; a
    # second lookup would let another module decide threads on its own
    reaching = sorted(
        name
        for name, tree in module_trees().items()
        if any(_reaches_blas(n) for n in ast.walk(tree))
    )
    assert reaching == ["parallel.py"]


THREAD_MODULES = {"threading", "_thread", "queue", "concurrent.futures"}


def _imported_modules(node) -> set[str]:
    """Every module an import statement loads, with its parent packages."""
    if isinstance(node, ast.Import):
        names = [alias.name for alias in node.names]
    elif isinstance(node, ast.ImportFrom) and not node.level:
        module = node.module or ""
        names = [module] + [f"{module}.{alias.name}" for alias in node.names]
    else:
        return set()
    parts = (name.split(".") for name in names)
    return {".".join(p[:i]) for p in parts for i in range(1, len(p) + 1)}


def test_only_parallel_handles_threads():
    # the pool's rules (same bits, the lowest failing block's error, serial
    # calls from a worker) hold only for work that goes through `parallel`
    importing = sorted(
        name
        for name, tree in module_trees().items()
        if any(_imported_modules(n) & THREAD_MODULES for n in ast.walk(tree))
    )
    assert importing == ["parallel.py"]
