"""Host CPU steal share from /proc/stat, sampled around a run.

Steal time is CPU time the hypervisor gave to other guests while this one
had work. It is a diagnostic that explains a noisy run, not a metric.
"""


def cpu_times():
    """Aggregate (steal, total) jiffies from the first line of /proc/stat."""
    try:
        with open("/proc/stat") as f:
            fields = f.readline().split()
    except OSError:
        return None
    values = [int(x) for x in fields[1:]]
    # user nice system idle iowait irq softirq steal [guest guest_nice]:
    # guest time is already counted inside user/nice.
    steal = values[7] if len(values) > 7 else 0
    return steal, sum(values[:8])


def steal_share(before, after):
    """Steal share of all CPU time between two cpu_times() samples."""
    if before is None or after is None:
        return None
    total = after[1] - before[1]
    return (after[0] - before[0]) / total if total > 0 else 0.0
