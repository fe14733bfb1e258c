"""The repro-track serve client subcommands, driven in-process."""

from __future__ import annotations

import json
from types import SimpleNamespace

import pytest

from repro.cli import main
from repro.errors import ServeError
from repro.serve import JobClient, JobServer
from repro.serve import client as client_module

FAST_SPEC = {
    "kind": "track",
    "app": "hydroc",
    "scenarios": [
        {"block_size": 64, "ranks": 8, "iterations": 3},
        {"block_size": 64, "ranks": 8, "iterations": 4},
    ],
    "seeds": [1, 2],
}


@pytest.fixture
def server(live_server, tmp_path):
    return live_server(JobServer, tmp_path / "srv", workers=1)


def test_submit_wait_status_result_round_trip(server, tmp_path, capsys):
    spec_file = tmp_path / "spec.json"
    spec_file.write_text(json.dumps(FAST_SPEC), encoding="utf-8")

    code = main(
        ["submit", str(spec_file), "--url", server.url, "--tenant", "cli",
         "--wait", "--timeout", "240"]
    )
    out = capsys.readouterr().out
    assert code == 0
    final = json.loads(out)
    assert final["state"] == "done"
    job_id = final["job_id"]

    assert main(["status", job_id, "--url", server.url]) == 0
    status_doc = json.loads(capsys.readouterr().out)
    assert status_doc["state"] == "done"

    assert main(["status", "--tenant", "cli", "--url", server.url]) == 0
    listing = json.loads(capsys.readouterr().out)
    assert [j["job_id"] for j in listing] == [job_id]

    result_file = tmp_path / "result.json"
    code = main(
        ["result", job_id, "--url", server.url, "-o", str(result_file)]
    )
    assert code == 0
    capsys.readouterr()
    payload = json.loads(result_file.read_text(encoding="utf-8"))
    assert payload["schema"] == "repro.serve.result/1"
    # The CLI-fetched bytes are the server's canonical artefact.
    assert result_file.read_bytes() == JobClient(server.url).result(job_id)

    report_file = tmp_path / "report.html"
    code = main(
        ["result", job_id, "--url", server.url, "--report", "-o",
         str(report_file)]
    )
    assert code == 0
    capsys.readouterr()
    assert report_file.read_bytes().startswith(b"<!DOCTYPE html>")


def test_submit_without_wait_prints_submitted_record(server, tmp_path, capsys):
    server.runner.pause()
    spec_file = tmp_path / "spec.json"
    spec_file.write_text(json.dumps(FAST_SPEC), encoding="utf-8")
    code = main(
        ["submit", str(spec_file), "--url", server.url, "--tenant", "cli"]
    )
    assert code == 0
    record = json.loads(capsys.readouterr().out)
    assert record["state"] == "submitted"


def test_client_error_paths(server, tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("REPRO_SERVE_URL", raising=False)
    spec_file = tmp_path / "spec.json"
    spec_file.write_text(json.dumps(FAST_SPEC), encoding="utf-8")

    # No URL anywhere -> exit 2 with guidance.
    assert main(["submit", str(spec_file)]) == 2
    assert "REPRO_SERVE_URL" in capsys.readouterr().err

    # REPRO_SERVE_URL works as the default (scheme optional).
    monkeypatch.setenv(
        "REPRO_SERVE_URL", server.url.replace("http://", "")
    )
    server.runner.pause()
    assert main(["submit", str(spec_file), "--tenant", "cli"]) == 0
    capsys.readouterr()

    # Unknown job id -> ReproError path, exit 2.
    assert main(["status", "deadbeef0000", "--url", server.url]) == 2
    assert "404" in capsys.readouterr().err

    # Malformed spec file -> exit 2 before any network call.
    bad = tmp_path / "bad.json"
    bad.write_text("{broken", encoding="utf-8")
    assert main(["submit", str(bad), "--url", server.url]) == 2
    assert "JSON" in capsys.readouterr().err

    # Server-side spec rejection -> exit 2 with the validation message.
    invalid = tmp_path / "invalid.json"
    invalid.write_text(
        json.dumps(dict(FAST_SPEC, app="no-such-app")), encoding="utf-8"
    )
    assert main(["submit", str(invalid), "--url", server.url]) == 2
    assert "unknown application" in capsys.readouterr().err

    # Status with neither job id nor tenant -> usage error.
    assert main(["status", "--url", server.url]) == 2


def test_serve_port_in_use_exits_1(server, tmp_path, capsys):
    code = main(
        ["serve", "--root", str(tmp_path / "other"), "--port",
         str(server.port)]
    )
    assert code == 1
    assert "cannot serve jobs" in capsys.readouterr().err


def test_wait_backs_off_from_20ms_up_to_poll_s(monkeypatch):
    """Polls start 20 ms apart and the pause doubles up to poll_s; a
    job that never ends still raises at the deadline."""
    clock = [0.0]
    sleeps = []

    def sleep(seconds):
        sleeps.append(seconds)
        clock[0] += seconds

    monkeypatch.setattr(
        client_module, "time",
        SimpleNamespace(monotonic=lambda: clock[0], sleep=sleep),
    )
    client = JobClient("http://127.0.0.1:1")
    monkeypatch.setattr(client, "status", lambda job_id: {"state": "running"})
    with pytest.raises(ServeError, match="still 'running'"):
        client.wait("job", timeout=0.65, poll_s=0.2)
    assert sleeps == pytest.approx([0.02, 0.04, 0.08, 0.16, 0.2, 0.2])

    states = iter(["submitted", "running", "done"])
    monkeypatch.setattr(client, "status", lambda job_id: {"state": next(states)})
    sleeps.clear()
    assert client.wait("job")["state"] == "done"
    assert sleeps == pytest.approx([0.02, 0.04])
