"""The output file of `simulate`: its samples are formatted block by block
as the integrator hands them over (dynamics.BLOCK_STEPS steps each), and
the file is written only once the run has finished.

Where os.fork exists, integrate_and_write forks one writer process before
the run.  The run writes each block's doubles into a pipe, as a
memoryview of the sample array with no copy, then the meta dict as JSON;
the integrator empties its array after each block, so the running process
holds one block of samples and the returned trajectory no table.  The
writer formats each block as it arrives, on the other core while the RK4
loop goes on, so at most BLOCK_STEPS rows are left to format when the
loop ends; it keeps the text in memory and opens the output path only
when the meta arrives.  End of file before it means the run stopped, and
no file is written.  A write error's text comes back on a second pipe.
Without os.fork the same formatter takes the blocks in process, and the
one process holds the text.
"""

from __future__ import annotations

import json
import operator
import os

from .report import dump_json, fmt_float

# one sample in dump_json's layout (indent 2, sorted keys), over the row
# [lambda, u0..u3, x0..x3]; %r of a finite float is json's float text
_JSON_VEC = "[\n" + ",\n".join(["        %r"] * 4) + "\n      ]"
_JSON_SAMPLE = '    {\n      "lambda": %r,\n      "u": ' + _JSON_VEC + ',\n      "x": ' + _JSON_VEC + "\n    }"
_JSON_ORDER = operator.itemgetter(0, 5, 6, 7, 8, 1, 2, 3, 4)


class SampleText:
    """The output file's text, formatted block by block from the flat rows
    [lambda, x0..x3, u0..u3] the integrator hands over; the samples are finite."""

    def __init__(self, fmt: str, full_precision: bool):
        self.as_json, self.full_precision = fmt == "json", full_precision
        self.chunks: list[str] = []

    def add(self, block) -> None:
        """Format a block of whole rows, given as a flat buffer of doubles."""
        rows = zip(*[iter(block)] * 9)
        if not self.as_json:
            self.chunks.append("".join([",".join(map(repr, r)) + "\r\n" for r in rows]))
            return
        rows = map(_JSON_ORDER, rows)
        if not self.full_precision:
            rows = (tuple(map(fmt_float, r)) for r in rows)
        sep = ",\n" if self.chunks else ""
        self.chunks.append(sep + ",\n".join([_JSON_SAMPLE % r for r in rows]))

    def parts(self, meta: dict) -> list[str]:
        """The text in order: the CSV header, or the JSON head holding meta in
        dump_json's layout, then the blocks, then the JSON tail."""
        if not self.as_json:
            return ["lambda,x0,x1,x2,x3,u0,u1,u2,u3\r\n", *self.chunks]
        head = dump_json({"meta": meta}, self.full_precision)[:-2]  # without the closing "\n}"
        return [f'{head},\n  "samples": [\n', *self.chunks, "\n  ]\n}"]

    def write(self, path: str, meta: dict) -> None:
        with open(path, "w", encoding="utf-8", newline=None if self.as_json else "") as fh:
            fh.writelines(self.parts(meta))


# frame tags on the pipe to the writer; end of file before _COMMIT aborts
_BLOCK, _COMMIT = b"B", b"C"


def _send(pipe, tag: bytes, payload) -> None:
    """One frame: the tag, the payload's byte count (8 bytes, little-endian),
    then the payload itself, a buffer written without a copy."""
    data = memoryview(payload).cast("B")
    for part in (tag + data.nbytes.to_bytes(8, "little"), data):
        while part:
            part = part[pipe.write(part):]


def _format_and_write(data_fd: int, report_fd: int, samples: SampleText, path: str) -> int:
    """The body of the forked writer, which returns its exit status."""
    with open(data_fd, "rb") as pipe:
        while head := pipe.read(9):
            payload = pipe.read(int.from_bytes(head[1:], "little"))
            if head[:1] == _BLOCK:
                samples.add(memoryview(payload).cast("d"))
            else:
                meta = json.loads(payload)
                break
        else:
            return 0  # the run stopped: no file is written
    try:
        samples.write(path, meta)
    except OSError as exc:
        os.write(report_fd, str(exc).encode("utf-8", "replace"))
        return 1
    return 0


def integrate_and_write(integrate, samples: SampleText, path: str):
    """The trajectory of integrate(emit), whose blocks samples formats and
    writes to path once the run has finished (see the module docstring)."""
    if not hasattr(os, "fork"):
        traj = integrate(samples.add)
        samples.write(path, traj.meta)
        return traj
    data_r, data_w = os.pipe()
    report_r, report_w = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        for fd in (data_r, data_w, report_r, report_w):
            os.close(fd)
        raise
    if pid == 0:  # leaves only through os._exit: no inherited buffer is flushed
        status = 1
        try:
            os.close(data_w)
            os.close(report_r)
            status = _format_and_write(data_r, report_w, samples, path)
        finally:
            os._exit(status)
    os.close(data_r)
    os.close(report_w)
    try:
        with open(report_r, "rb") as report:
            with open(data_w, "wb", buffering=0) as pipe:
                traj = integrate(lambda block: _send(pipe, _BLOCK, block))
                _send(pipe, _COMMIT, json.dumps(traj.meta).encode())
            error = report.read().decode()  # until the writer exits
    finally:
        status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    if error or status:
        raise OSError(error or f"the output writer exited with status {status}")
    return traj
