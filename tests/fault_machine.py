"""What the two sides of the fault machine share (``tests/test_stateful.py``
and ``tests/test_fleet_replication_stateful.py``): the budget under the
loaded hypothesis profile, the oracle, a block to publish, and the
check that every node under a root resolves."""

from hypothesis import settings

from repro.client.vfs import QueryMode
from repro.faults import registry as faults
from repro.isp.server import IspServer

#: Faulted publish attempts before an update is forced through with
#: faults suspended: the retry is bounded, so every block publishes.
MAX_PUBLISH_ATTEMPTS = 10


def machine_settings(examples, steps):
    """``examples`` programs of at most ``steps`` rules under the
    ``default`` profile, scaled by the loaded one (``tests/conftest.py``).
    Derandomized: every run of a profile explores the same programs."""
    default, profile = settings.get_profile("default"), settings.default
    return settings(
        max_examples=examples * profile.max_examples // default.max_examples,
        stateful_step_count=(steps * profile.stateful_step_count
                             // default.stateful_step_count),
        deadline=None, derandomize=True,
    )


def read_everything(isp, root):
    """Resolve every page of every file under ``root`` in ``isp``'s
    store; an unknown digest anywhere raises ``StorageError``."""
    for path in isp.ads.list_files(root):
        node = isp.ads.file_node(root, path)
        for page_id in range(node.page_count):
            isp.ads.get_page(root, path, page_id)


class Oracle:
    """An in-memory ISP fed the same reports with faults suspended, and
    the rows a verifying client reads from it."""

    def __init__(self, system):
        self.isp = IspServer()
        self.isp.sync_update(*system.certified_state())
        self.client = system.make_client(QueryMode.BASELINE, isp=self.isp)
        self._rows = {}

    def publish(self, batch):
        with faults.suspended():
            self.isp.sync_update(*batch)

    def rows(self, sql):
        key = (self.isp.certificate.version, sql)
        if key not in self._rows:
            with faults.suspended():
                self._rows[key] = self.client.query(sql).rows
        return self._rows[key]


def next_block(system, chain_id):
    """One block through chain and CI (trusted: faults suspended), not
    yet published to the ISP; returns its ``sync_update`` batch."""
    isp = system.isp
    with faults.suspended():
        isp.sync_update = lambda writes, sizes, certificate: None
        try:
            report = system.advance_block(chain_id)
        finally:
            del isp.sync_update
    return report.writes, report.new_sizes, report.certificate
