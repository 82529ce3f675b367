"""The README's Python examples run as written, and its shell examples'
configs use only keys that their commands read, so an API change that
breaks them fails here instead of leaving the docs stale."""

import json
import re
from pathlib import Path

from support import command_keys

README = Path(__file__).resolve().parent.parent / "README.md"


def _blocks(language: str) -> list[str]:
    text = README.read_text(encoding="utf-8")
    return re.findall(rf"^```{language}\n(.*?)^```$", text, re.M | re.S)


def test_python_blocks_run_in_order():
    blocks = _blocks("python")
    assert blocks, "README has no python examples"
    # later examples use names the earlier ones define, as a reader's session would
    namespace = {"__name__": "readme"}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)


def test_shell_configs_use_only_keys_their_command_reads():
    """Each ``cat > X.json <<'JSON'`` config is passed to a command as
    ``fedsurv CMD --config X.json``, and each of its keys is a field of
    that command's config dataclass or, for a command with ``--seed``,
    "seed". The files the configs name are not needed."""
    script = "".join(_blocks("sh"))
    configs = {
        name: json.loads(body)
        for name, body in re.findall(r"^cat > (\S+) <<'JSON'\n(.*?)^JSON$", script, re.M | re.S)
    }
    uses = re.findall(r"^fedsurv (\S+) .*--config (\S+)", script, re.M)
    readers = {name: command for command, name in uses}
    assert configs and set(configs) <= set(readers), (sorted(configs), readers)
    for name, config in configs.items():
        unread = set(config) - set(command_keys(readers[name]))
        assert not unread, f"{name} for `fedsurv {readers[name]}` sets keys it does not read: {unread}"
