"""The output file of `simulate`: its samples are formatted block by block
as the integrator hands them over (dynamics.BLOCK_STEPS steps each), and
the file is written only once the run has finished.

Where os.fork exists, integrate_and_write forks one writer process before
the run, and the two processes share the formatting.  Three pipes join
them.  On the data pipe the integrating process sends frames, each a tag
byte, an 8-byte length and a payload:

- B, a block's doubles, written from the sample array with no copy; the
  writer formats them;
- T, a block the integrating process has formatted itself, as text;
- C, the meta dict as JSON, which ends the run.

The writer appends each block's text to the file text in frame order.  It
writes one byte on the ack pipe for each B block it has formatted, and
the integrating process reads that pipe without blocking before each
block it sends.  B blocks sent minus bytes read is the number the writer
has not formatted yet; at 2 or more, one is waiting behind the one in
hand, so the writer lags, and the integrating process formats the block
itself, with the same SampleText code, straight to bytes.  Whichever
process has time takes the next block, so the RK4 loop and the writer
each format part of the text while the loop goes on; the integrating
process holds one block of samples, and the returned trajectory no table.

The writer keeps the text in memory and opens the output path only when
the meta arrives.  End of file before it means the run stopped, and no
file is written.  A write error's text comes back on the report pipe; a
writer that dies is reported by its exit status.  Without os.fork the same
formatter takes the blocks in process, and the one process holds the text.
"""

from __future__ import annotations

import json
import operator
import os

from .report import dump_json, fmt_float

# one CSV row over [lambda, x0..x3, u0..u3], and one sample in dump_json's
# layout (indent 2, sorted keys) over the row [lambda, u0..u3, x0..x3]; %r
# of a finite float is repr's text and json's, in str and in bytes alike
_CSV_ROW = ",".join(["%r"] * 9) + "\r\n"
_JSON_VEC = "[\n" + ",\n".join(["        %r"] * 4) + "\n      ]"
_JSON_SAMPLE = '    {\n      "lambda": %r,\n      "u": ' + _JSON_VEC + ',\n      "x": ' + _JSON_VEC + "\n    }"
_JSON_ORDER = operator.itemgetter(0, 5, 6, 7, 8, 1, 2, 3, 4)
# the CSV row, the JSON sample and the separator between JSON samples
_TEMPLATES = {str: (_CSV_ROW, _JSON_SAMPLE, ",\n"),
              bytes: (_CSV_ROW.encode(), _JSON_SAMPLE.encode(), b",\n")}


class SampleText:
    """The output file's text, formatted block by block from the flat rows
    [lambda, x0..x3, u0..u3] the integrator hands over; the samples are finite."""

    def __init__(self, fmt: str, full_precision: bool):
        self.as_json, self.full_precision = fmt == "json", full_precision
        self.chunks: list[str] = []

    def text(self, block, first: bool, kind=str):
        """The text of a block of whole rows, given as a flat buffer of
        doubles, as a str or, with kind=bytes, as the same characters in
        bytes.  A JSON block after the first starts with its separator."""
        row, sample, sep = _TEMPLATES[kind]
        values = block.tolist()
        if not self.as_json:
            return row * (len(values) // 9) % tuple(values)
        rows = map(_JSON_ORDER, zip(*[iter(values)] * 9))
        if not self.full_precision:
            rows = (tuple(map(fmt_float, r)) for r in rows)
        text = sep.join([sample % r for r in rows])
        return text if first else sep + text

    def add(self, block) -> None:
        """Format a block of whole rows, given as a flat buffer of doubles."""
        self.chunks.append(self.text(block, not self.chunks))

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


# frame tags on the data pipe; end of file before _COMMIT aborts
_BLOCK, _TEXT, _COMMIT = b"B", b"T", b"C"


def _send(pipe, tag: bytes, payload) -> None:
    """One frame: the tag, the payload's byte count (8 bytes, little-endian),
    then the payload itself, a buffer written without a copy."""
    data = memoryview(payload).cast("B")
    for part in (tag + data.nbytes.to_bytes(8, "little"), data):
        while part:
            part = part[pipe.write(part):]


def _integrator_formats(waiting: int) -> bool:
    """Whether the integrating process formats the next block itself, given
    the number of B blocks the writer has not formatted yet."""
    return waiting >= 2


def _format_and_write(data_fd: int, report_fd: int, ack_fd: int, samples: SampleText,
                      path: str) -> int:
    """The body of the forked writer, which returns its exit status."""
    with open(data_fd, "rb") as pipe:
        while head := pipe.read(9):
            payload = pipe.read(int.from_bytes(head[1:], "little"))
            if head[:1] == _BLOCK:
                samples.add(memoryview(payload).cast("d"))
                os.write(ack_fd, b".")
            elif head[:1] == _TEXT:
                samples.chunks.append(payload.decode())
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
    fds = data_r, data_w, report_r, report_w, ack_r, ack_w = (*os.pipe(), *os.pipe(), *os.pipe())
    try:
        pid = os.fork()
    except OSError:
        for fd in fds:
            os.close(fd)
        raise
    if pid == 0:  # leaves only through os._exit: no inherited buffer is flushed
        status = 1
        try:
            for fd in (data_w, report_r, ack_r):
                os.close(fd)
            status = _format_and_write(data_r, report_w, ack_w, samples, path)
        finally:
            os._exit(status)
    for fd in (data_r, report_w, ack_w):
        os.close(fd)
    os.set_blocking(ack_r, False)
    try:
        with open(report_r, "rb") as report, open(ack_r, "rb", buffering=0) as acks:
            try:
                with open(data_w, "wb", buffering=0) as pipe:
                    blocks = sent = formatted = 0  # all blocks, B blocks, B blocks formatted

                    def emit(block):
                        nonlocal blocks, sent, formatted
                        # None when no byte waits, b"" once the writer has gone
                        while done := acks.read(4096):
                            formatted += len(done)
                        if _integrator_formats(sent - formatted):
                            _send(pipe, _TEXT, samples.text(block, not blocks, bytes))
                        else:
                            _send(pipe, _BLOCK, block)
                            sent += 1
                        blocks += 1

                    traj = integrate(emit)
                    _send(pipe, _COMMIT, json.dumps(traj.meta).encode())
            except BrokenPipeError:  # the writer has gone; its report or status says why
                traj = None
            error = report.read().decode()  # until the writer exits
    finally:
        status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    if error or status or traj is None:
        raise OSError(error or f"the output writer exited with status {status}")
    return traj
