import io

import pytest

from sccq.eventlog import load_event_log

# Quote-handling process log: two cases, seven events, epoch-millisecond
# timestamps. Headers use the alias names on purpose so every test that
# loads it also exercises column auto-detection.
QUOTES_CSV = """\
event_id,case_id,timestamp,event_name,status
e0001,0001,1675086864052,Review request,NEW
e0002,0002,1675147138009,Review request,NEW
e0003,0001,1675160180724,Calculate terms,WIP
e0004,0002,1675213914098,Define terms,WIP
e0005,0001,1675220315296,Prepare contract,WIP
e0006,0002,1675282027657,Prepare contract,WIP
e0007,0002,1675414104525,Send quote,SENT
"""

# Single case of four events at strictly increasing timestamps.
FOUR_CSV = """\
eid,cid,ts,event_name
e1,c1,10,e1
e2,c1,20,e2
e3,c1,30,e3
e4,c1,90,e4
"""


@pytest.fixture
def quotes_log():
    return load_event_log(io.StringIO(QUOTES_CSV))


@pytest.fixture
def four_event_log():
    return load_event_log(io.StringIO(FOUR_CSV))


@pytest.fixture
def quotes_csv_path(tmp_path):
    path = tmp_path / "quotes.csv"
    path.write_text(QUOTES_CSV, encoding="utf-8")
    return str(path)


@pytest.fixture
def four_csv_path(tmp_path):
    path = tmp_path / "four.csv"
    path.write_text(FOUR_CSV, encoding="utf-8")
    return str(path)
