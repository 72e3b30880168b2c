"""PA-links integration tests: the section 3.2 use cases."""

import pytest

from repro.apps.links import Browser, Web
from repro.core.errors import BrowserError
from repro.core.records import Attr, ObjType
from repro.query.helpers import ancestry_refs, descendant_refs


def make_web():
    web = Web()
    web.publish("http://trusted.example/", links=["http://codecs.example/"],
                content=b"<html>portal</html>")
    web.publish("http://codecs.example/",
                links=["http://codecs.example/downloads"],
                content=b"<html>codecs</html>")
    web.publish("http://codecs.example/downloads",
                links=["http://codecs.example/files/codec.bin"],
                content=b"<html>downloads</html>")
    web.publish("http://codecs.example/files/codec.bin",
                content=b"CODEC-V1", content_type="application/octet-stream")
    web.publish("http://short.example/c",
                redirect="http://codecs.example/files/codec.bin")
    web.publish("http://graphs.example/q3.png", content=b"PNGDATA-Q3",
                content_type="image/png")
    return web


def run_browser(system, body, argv=("links",)):
    """Run a browser interaction inside a simulated process."""
    web = make_web()
    out = {}

    def program(sc):
        browser = Browser(sc, web)
        out["result"] = body(browser, sc)
        return 0

    system.register_program("/pass/bin/links", program)
    system.run("/pass/bin/links", argv=list(argv))
    return web, out.get("result")


class TestWebModel:
    def test_fetch_follows_redirects(self):
        web = make_web()
        page, chain = web.fetch("http://short.example/c")
        assert page.content == b"CODEC-V1"
        assert chain == ["http://short.example/c",
                         "http://codecs.example/files/codec.bin"]

    def test_redirect_loop_detected(self):
        web = Web()
        web.publish("http://a/", redirect="http://b/")
        web.publish("http://b/", redirect="http://a/")
        with pytest.raises(BrowserError):
            web.fetch("http://a/")

    def test_404(self):
        web = Web()
        with pytest.raises(BrowserError):
            web.fetch("http://missing/")

    def test_take_down(self):
        web = make_web()
        web.take_down("http://graphs.example/q3.png")
        assert not web.exists("http://graphs.example/q3.png")


class TestSessions:
    def test_session_object_in_database(self, system):
        def body(browser, sc):
            session = browser.new_session()
            browser.visit(session, "http://trusted.example/")
            browser.download(session, "http://graphs.example/q3.png",
                             "/pass/q3.png")

        run_browser(system, body)
        system.sync()
        db = system.database("pass")
        sessions = [ref for ref in db.subjects_with_attr(Attr.TYPE)
                    if ObjType.SESSION in db.attribute_values(ref, Attr.TYPE)]
        assert sessions
        visited = db.attribute_values(sessions[0], Attr.VISITED_URL)
        assert "http://trusted.example/" in visited

    def test_download_carries_three_records(self, system):
        def body(browser, sc):
            session = browser.new_session()
            browser.visit(session, "http://codecs.example/downloads")
            browser.download(session,
                             "http://codecs.example/files/codec.bin",
                             "/pass/codec.bin")

        run_browser(system, body)
        system.sync()
        db = system.database("pass")
        file_ref = system.find_by_name("/pass/codec.bin")[0]
        records = db.records_of(file_ref.pnode)
        attrs = {r.attr for r in records}
        assert Attr.FILE_URL in attrs
        assert Attr.CURRENT_URL in attrs
        assert Attr.INPUT in attrs
        urls = [r.value for r in records if r.attr == Attr.FILE_URL]
        assert urls == ["http://codecs.example/files/codec.bin"]
        current = [r.value for r in records if r.attr == Attr.CURRENT_URL]
        assert current == ["http://codecs.example/downloads"]


class TestAttributionUseCase:
    def test_renamed_file_keeps_browser_provenance(self, system):
        """Section 3.2: the professor copies the graph into her talk
        directory; the URL must still be recoverable even after the
        page is gone from the Web."""
        def body(browser, sc):
            session = browser.new_session()
            browser.visit(session, "http://graphs.example/q3.png")
            browser.download(session, "http://graphs.example/q3.png",
                             "/pass/downloads/q3.png")

        with system.process() as proc:
            proc.mkdir("/pass/downloads")
            proc.mkdir("/pass/talk")
        web, _ = run_browser(system, body)
        with system.process() as proc:
            proc.rename("/pass/downloads/q3.png", "/pass/talk/q3.png")
        web.take_down("http://graphs.example/q3.png")
        system.sync()
        db = system.database("pass")
        refs = system.find_by_name("/pass/talk/q3.png")
        assert refs
        urls = [r.value for r in db.records_of(refs[0].pnode)
                if r.attr == Attr.FILE_URL]
        assert urls == ["http://graphs.example/q3.png"]


class TestMalwareUseCase:
    def test_find_source_site_and_spread(self, system):
        """Section 3.2: find where the malware came from (browser layer)
        and everything it corrupted (PASS layer)."""
        def body(browser, sc):
            session = browser.new_session()
            browser.visit(session, "http://trusted.example/")
            browser.follow_link(session, 0)          # codecs.example
            browser.follow_link(session, 0)          # downloads page
            browser.download(session,
                             "http://codecs.example/files/codec.bin",
                             "/pass/codec.bin")

        web = make_web()
        web.compromise("http://codecs.example/files/codec.bin",
                       b"MALWARE-PAYLOAD")

        def program(sc):
            browser = Browser(sc, web)
            body(browser, sc)
            return 0

        system.register_program("/pass/bin/links", program)
        system.run("/pass/bin/links", argv=["links"])
        # The malware runs and corrupts other files.
        def infected(sc):
            fd = sc.open("/pass/codec.bin", "r")
            payload = sc.read(fd)
            sc.close(fd)
            for victim in ("/pass/doc1", "/pass/doc2"):
                fd = sc.open(victim, "w")
                sc.write(fd, payload + b" infected")
                sc.close(fd)

        system.register_program("/pass/bin/codec", infected, size=4096)
        system.run("/pass/bin/codec")
        system.sync()
        db = system.database("pass")
        codec_ref = system.find_by_name("/pass/codec.bin")[0]
        # Layer 1 (browser): which site?  The session's history.
        ancestors = ancestry_refs(system.query_engine().graph, codec_ref)
        session_refs = [ref for ref in ancestors
                        if ObjType.SESSION in db.attribute_values(
                            ref, Attr.TYPE)]
        assert session_refs
        visited = db.attribute_values(session_refs[0], Attr.VISITED_URL)
        assert "http://trusted.example/" in visited
        assert "http://codecs.example/downloads" in visited
        # Layer 2 (PASS): what did the malware touch?
        tainted = descendant_refs(system.query_engine().graph, codec_ref)
        names = set()
        for ref in tainted:
            for record in db.records_of(ref.pnode):
                if record.attr == Attr.NAME:
                    names.add(record.value)
        assert {"/pass/doc1", "/pass/doc2"} <= names


class TestSessionRevival:
    def test_save_and_restore_session(self, system):
        """The pass_reviveobj flow: provenance recorded after revival
        lands on the same session object."""
        def first_run(browser, sc):
            session = browser.new_session()
            browser.visit(session, "http://trusted.example/")
            browser.save_session(session, "/pass/session.json")

        def second_run(browser, sc):
            session = browser.restore_session("/pass/session.json")
            browser.visit(session, "http://codecs.example/")
            browser.save_session(session, "/pass/session.json")

        web = make_web()

        def program1(sc):
            first_run(Browser(sc, web), sc)
            return 0

        def program2(sc):
            second_run(Browser(sc, web), sc)
            return 0

        system.register_program("/pass/bin/links", program1)
        system.run("/pass/bin/links")
        system.run("/pass/bin/links", program=program2)
        system.sync()
        db = system.database("pass")
        sessions = {ref.pnode for ref in db.subjects_with_attr(Attr.TYPE)
                    if ObjType.SESSION in db.attribute_values(ref, Attr.TYPE)}
        assert len(sessions) == 1          # same object across both runs
        pnode = sessions.pop()
        visited = {r.value for r in db.records_of(pnode)
                   if r.attr == Attr.VISITED_URL}
        assert {"http://trusted.example/", "http://codecs.example/"} <= visited

    def test_restore_bad_version_rejected(self, system):
        def body(browser, sc):
            session = browser.new_session()
            browser.save_session(session, "/pass/s.json")

        run_browser(system, body)

        def tamper(sc):
            fd = sc.open("/pass/s.json", "r")
            import json
            state = json.loads(sc.read(fd).decode())
            sc.close(fd)
            state["version"] = 99
            fd = sc.open("/pass/s.json", "w")
            sc.write(fd, json.dumps(state).encode())
            sc.close(fd)
            browser = Browser(sc, make_web())
            from repro.core.errors import StalePnodeVersion
            try:
                browser.restore_session("/pass/s.json")
            except StalePnodeVersion:
                return 0
            raise AssertionError("bad version accepted")

        system.register_program("/pass/bin/tamper", tamper)
        system.run("/pass/bin/tamper")
