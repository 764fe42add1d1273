#!/usr/bin/env python3
"""CPU a server burns while its connections sit idle.

    scripts/idle_cpu.py http BINARY PEERS [SECONDS]   # annoda-serve
    scripts/idle_cpu.py afed BINARY PEERS [SECONDS]   # source-server

Starts BINARY on an ephemeral loopback port (`--loci 200`), opens PEERS
connections and holds them idle: each sends one `GET /healthz` and reads
the answer (http), or exchanges the AFED hello (afed). After a 0.5 s
settle it reads the server's utime+stime from /proc/PID/stat before and
after SECONDS (default 4) and prints the server's CPU time per second of
wall time. Linux only; with the usual 10 ms clock tick one reading
resolves 10 ms / SECONDS.
"""
import os
import re
import socket
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def afed_hello():
    """`proto::MAGIC` then `proto::VERSION`, read from the source."""
    with open(os.path.join(ROOT, "crates/federation/src/proto.rs")) as f:
        version = int(re.search(r"pub const VERSION: u8 = (\d+);", f.read()).group(1))
    return b"AFED" + bytes([version])


def cpu_ticks(pid):
    with open(f"/proc/{pid}/stat") as f:
        fields = f.read().rsplit(")", 1)[1].split()
    return int(fields[11]) + int(fields[12])  # utime, stime


def read_exactly(sock, n):
    got = b""
    while len(got) < n:
        chunk = sock.recv(n - len(got))
        if not chunk:
            sys.exit("the server closed a probe connection")
        got += chunk
    return got


def open_http(addr):
    sock = socket.create_connection(addr)
    sock.sendall(b"GET /healthz HTTP/1.1\r\nHost: probe\r\n\r\n")
    data = b""
    while b"\r\n\r\n" not in data:
        data += read_exactly(sock, 1)
    length = int(re.search(rb"(?i)content-length:\s*(\d+)", data).group(1))
    read_exactly(sock, length)
    return sock


def open_afed(addr, hello):
    sock = socket.create_connection(addr)
    sock.sendall(hello)
    if read_exactly(sock, 5) != hello:
        sys.exit("unexpected AFED hello")
    return sock


def main():
    kind, binary, peers = sys.argv[1], sys.argv[2], int(sys.argv[3])
    seconds = float(sys.argv[4]) if len(sys.argv) > 4 else 4.0
    if kind == "http":
        cmd = [binary, "--addr", "127.0.0.1:0", "--loci", "200"]
        listening = rb"listening on http://([\d.]+):(\d+)"
    else:
        cmd = [binary, "--source", "locuslink", "--loci", "200"]
        listening = rb"listening on ([\d.]+):(\d+)"
    server = subprocess.Popen(
        cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL
    )
    try:
        while True:
            line = server.stdout.readline()
            if not line:
                sys.exit(f"{binary} exited before listening")
            found = re.search(listening, line)
            if found:
                addr = (found.group(1).decode(), int(found.group(2)))
                break
        hello = afed_hello()
        conns = [
            open_http(addr) if kind == "http" else open_afed(addr, hello)
            for _ in range(peers)
        ]
        time.sleep(0.5)
        tick = os.sysconf("SC_CLK_TCK")
        before, started = cpu_ticks(server.pid), time.monotonic()
        time.sleep(seconds)
        after, wall = cpu_ticks(server.pid), time.monotonic() - started
        print(f"{kind} peers={peers} cpu={(after - before) * 1000 / tick / wall:.1f} ms/s")
        for sock in conns:
            sock.close()
    finally:
        server.kill()
        server.wait()


if __name__ == "__main__":
    main()
