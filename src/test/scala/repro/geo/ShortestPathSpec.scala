package repro.geo

import java.util.concurrent.{Callable, Executors, TimeUnit}
import org.scalatest.funsuite.AnyFunSuite
import repro.TestWorld
import scala.util.Random

class ShortestPathSpec extends AnyFunSuite {

  private val net = RoadNetwork.generate(
    RoadNetwork.CityConfig("test", gridW = 7, gridH = 6, spacingM = 150, seed = 3))

  private def floydWarshall(n: RoadNetwork): Array[Array[Double]] = {
    val m = n.numNodes
    val d = Array.fill(m, m)(Double.PositiveInfinity)
    (0 until m).foreach(i => d(i)(i) = 0.0)
    n.segments.foreach(s => d(s.from)(s.to) = math.min(d(s.from)(s.to), s.lengthM))
    for (k <- 0 until m; i <- 0 until m; j <- 0 until m)
      if (d(i)(k) + d(k)(j) < d(i)(j)) d(i)(j) = d(i)(k) + d(k)(j)
    d
  }

  private lazy val fw = floydWarshall(net)

  /** The whole bounded Dijkstra table: a search whose targets are all nodes. */
  private def dijkstra(n: RoadNetwork, src: Int, maxDist: Double = Double.PositiveInfinity): Array[Double] =
    ShortestPath.dijkstraTo(n, src, maxDist, Array.range(0, n.numNodes))

  test("network is strongly connected (generator invariant)") {
    val d = dijkstra(net, 0)
    assert(d.forall(_.isFinite))
  }

  test("dijkstra matches Floyd-Warshall from several sources") {
    Seq(0, 5, net.numNodes / 2, net.numNodes - 1).foreach { src =>
      val d = dijkstra(net, src)
      (0 until net.numNodes).foreach { v =>
        assert(math.abs(d(v) - fw(src)(v)) < 1e-6, s"src=$src v=$v")
      }
    }
  }

  test("aStar matches Floyd-Warshall on random pairs") {
    val rnd = new Random(11)
    (1 to 60).foreach { _ =>
      val a = rnd.nextInt(net.numNodes); val b = rnd.nextInt(net.numNodes)
      assert(math.abs(ShortestPath.aStar(net, a, b) - fw(a)(b)) < 1e-6, s"$a->$b")
      // The simulator's node path: a chain of segments from a to b as long
      // as the shortest distance.
      val segs = ShortestPath.nodePathSegments(net, a, b).map(_.map(net.segments(_)))
      assert(segs.isDefined, s"$a->$b")
      assert(segs.get.map(_.from) == (a :: segs.get.map(_.to)).init, s"$a->$b not a chain")
      assert(segs.get.lastOption.fold(a)(_.to) == b)
      assert(math.abs(segs.get.map(_.lengthM).sum - fw(a)(b)) < 1e-6, s"$a->$b")
    }
  }

  test("bounded dijkstra: exact within the bound, tentative one segment past it, +inf beyond") {
    val bound = 400.0
    Seq(0, net.numNodes / 2).foreach { src =>
      val d = dijkstra(net, src, maxDist = bound)
      val expanded = (0 until net.numNodes).filter(fw(src)(_) <= bound).toSet
      val tentative = Array.fill(net.numNodes)(Double.PositiveInfinity)
      net.segments.filter(s => expanded(s.from)).foreach { s =>
        tentative(s.to) = math.min(tentative(s.to), fw(src)(s.from) + s.lengthM)
      }
      val past = (0 until net.numNodes).filter(v => !expanded(v) && tentative(v).isFinite)
      assert(past.nonEmpty && past.size + expanded.size < net.numNodes, "bound too loose to test")
      (0 until net.numNodes).foreach { v =>
        if (expanded(v)) assert(math.abs(d(v) - fw(src)(v)) < 1e-6, s"src=$src v=$v")
        else if (tentative(v).isFinite) assert(math.abs(d(v) - tentative(v)) < 1e-6, s"src=$src v=$v")
        else assert(d(v).isPosInfinity, s"src=$src v=$v")
      }
    }
  }

  test("aStar to self is 0") {
    assert(ShortestPath.aStar(net, 4, 4) == 0.0)
  }

  test("DistCache matchedDist same segment") {
    val cache = new ShortestPath.DistCache(net)
    val s = net.segments(0)
    val d = cache.matchedDist(0, 0.2, 0, 0.7)
    assert(math.abs(d - 0.5 * s.lengthM) < 1e-9)
  }

  test("DistCache matchedDist is symmetric and near-planar for nearby points") {
    val cache = new ShortestPath.DistCache(net)
    val rnd = new Random(5)
    (1 to 40).foreach { _ =>
      val sa = rnd.nextInt(net.numSegments); val sb = rnd.nextInt(net.numSegments)
      val ra = rnd.nextDouble(); val rb = rnd.nextDouble()
      val d1 = cache.matchedDist(sa, ra, sb, rb)
      val d2 = cache.matchedDist(sb, rb, sa, ra)
      assert(math.abs(d1 - d2) < 1e-6)
      // Network distance can never beat the straight line (modulo the lane
      // offset: path lengths are centreline, point geometry is lane-shifted).
      val planar = net.pointAt(sa, ra).dist(net.pointAt(sb, rb))
      assert(d1 >= planar - 2 * RoadNetwork.LaneOffsetM - 1e-6)
    }
  }

  private val lengthCosts = Array.tabulate(net.numSegments)(u => net.nextSegments(u).map(net.segments(_).lengthM))

  test("segmentSearch connects adjacent segments directly") {
    val next = net.nextSegments(0)
    assume(next.nonEmpty)
    val r = ShortestPath.segmentSearch(net, 0, next.head, lengthCosts)
    assert(r.contains(List(next.head)))
  }

  test("segmentSearch from a segment to itself is empty") {
    assert(ShortestPath.segmentSearch(net, 3, 3, lengthCosts).contains(Nil))
  }

  test("segmentSearch forms a connected chain") {
    val rnd = new Random(13)
    (1 to 30).foreach { _ =>
      val a = rnd.nextInt(net.numSegments); val b = rnd.nextInt(net.numSegments)
      ShortestPath.segmentSearch(net, a, b, lengthCosts).foreach { path =>
        val full = a :: path
        full.sliding(2).foreach {
          case List(x, y) => assert(net.nextSegments(x).contains(y), s"$x !-> $y")
          case _          => ()
        }
        if (a != b) assert(full.last == b)
      }
    }
  }

  test("dijkstraTo equals ReferenceSearch.dijkstra at every target, bit for bit") {
    val rnd = new Random(23)
    val seen = scala.collection.mutable.Set.empty[String]
    (1 to 300).foreach { _ =>
      val src = rnd.nextInt(net.numNodes)
      val bound = 100 + 600 * rnd.nextDouble()
      val drawn = Array.fill(1 + rnd.nextInt(5))(rnd.nextInt(net.numNodes))
      // Duplicate targets, and sometimes the source itself.
      val targets = drawn ++ drawn.take(1) ++ (if (rnd.nextInt(4) == 0) Array(src) else Array.empty[Int])
      val full = ReferenceSearch.dijkstra(net, src, maxDist = bound)
      val got = ShortestPath.dijkstraTo(net, src, bound, targets)
      targets.indices.foreach { i =>
        val v = targets(i)
        assert(got(i) == full(v), s"src=$src v=$v bound=$bound")
        seen += (if (v == src) "source" else if (full(v).isPosInfinity) "inf"
                 else if (full(v) <= bound) "exact" else "tentative")
      }
    }
    assert(seen == Set("source", "exact", "tentative", "inf"))
  }

  test("dijkstraTo leaves an unreachable target at +inf") {
    val oneWay = TestWorld.oneWayDeadEnd
    Seq(0, 1, 2).foreach { src =>
      val targets = Array(2, 0, 1, 2)
      val got = ShortestPath.dijkstraTo(oneWay, src, Double.PositiveInfinity, targets)
      val full = ReferenceSearch.dijkstra(oneWay, src)
      assert(got.toSeq == targets.toSeq.map(full(_)), s"src=$src")
    }
    assert(ShortestPath.dijkstraTo(oneWay, 2, Double.PositiveInfinity, Array(0, 1)).forall(_.isPosInfinity))
  }

  test("searches break ties exactly as the PriorityQueue search did") {
    // No jitter: every block is 150 m, so many routes tie in length and the
    // pop order of equal keys decides which one comes back.
    val flat = RoadNetwork.generate(RoadNetwork.CityConfig("flat",
      gridW = 8, gridH = 7, spacingM = 150, jitterFrac = 0.0, seed = 5))
    val rnd = new Random(29)
    val routes = Seq.fill(60)(ReferenceSearch.nodePathSegments(flat,
      rnd.nextInt(flat.numNodes), rnd.nextInt(flat.numNodes)).get)
    // The planners' costs as the reference computes them (fit's beta is 30).
    val sp = new RoutePlanner(flat, Map.empty, Map.empty, beta = 0.0)
    val fitted = RoutePlanner.fit(flat, routes)
    val planners = Seq[(RoutePlanner, (Int, Int) => Double)](
      sp -> ((c, n) => flat.segments(n).lengthM + 0.0 * sp.negLogProb(c, n)),
      fitted -> ((c, n) => flat.segments(n).lengthM + 30.0 * fitted.negLogProb(c, n)))
    (1 to 300).foreach { _ =>
      val a = rnd.nextInt(flat.numNodes); val b = rnd.nextInt(flat.numNodes)
      assert(ShortestPath.nodePathSegments(flat, a, b) == ReferenceSearch.nodePathSegments(flat, a, b), s"$a->$b")
      val bound = 300 + 600 * rnd.nextDouble()
      assert(dijkstra(flat, a, bound).toSeq == ReferenceSearch.dijkstra(flat, a, bound).toSeq)
      val sa = rnd.nextInt(flat.numSegments); val sb = rnd.nextInt(flat.numSegments)
      planners.foreach { case (p, cost) =>
        assert(p.plan(sa, sb) == ReferenceSearch.segmentSearch(flat, sa, sb, cost).getOrElse(List(sb)), s"$sa->$sb")
      }
    }
  }

  /** `n` with every road pointing from the lower node id to the higher: the
    * same node and segment counts, a two-way road becomes two parallel
    * one-way segments, and no node reaches a node of a lower id.
    */
  private def upwards(n: RoadNetwork): RoadNetwork =
    new RoadNetwork(n.name + "-up", n.nodes, n.segments.map(s =>
      if (s.from < s.to) s else s.copy(from = s.to, to = s.from, a = s.b, b = s.a)))

  test("dijkstraTo towards lattice-like targets equals ReferenceSearch.dijkstra, bit for bit") {
    // The targets are the entrances of a point's 10 nearest segments, as in
    // the candidate lattice: a small bounding circle, so the goal-directed
    // search prunes most of the network.
    val nets = Seq(net, TestWorld.net, upwards(TestWorld.net), TestWorld.oneWayDeadEnd)
    val rnd = new Random(37)
    val seen = scala.collection.mutable.Set.empty[String]
    nets.foreach { n =>
      (1 to 150).foreach { _ =>
        val p = XY(n.minX + rnd.nextDouble() * (n.maxX - n.minX), n.minY + rnd.nextDouble() * (n.maxY - n.minY))
        val targets = n.nearestSegments(p, 10).map(n.segments(_).from)
        val src = rnd.nextInt(n.numNodes)
        Seq(100 + 900 * rnd.nextDouble(), Double.PositiveInfinity).foreach { bound =>
          val full = ReferenceSearch.dijkstra(n, src, bound)
          val got = ShortestPath.dijkstraTo(n, src, bound, targets)
          assert(bits(got) == bits(targets.map(full(_))), s"${n.name} src=$src bound=$bound targets=${targets.toSeq}")
          targets.foreach(v => seen += (if (full(v).isPosInfinity) "inf" else if (full(v) <= bound) "exact" else "tentative"))
        }
      }
    }
    assert(seen == Set("exact", "tentative", "inf"))
  }

  test("every U-turn plan on the jitter-free grid equals ReferenceSearch.segmentSearch") {
    // A plan from a segment to its reverse twin goes round a block, and on
    // a grid of equal blocks both ways round cost the same: the routes
    // differ only in which tied predecessor the search keeps.
    val flat = RoadNetwork.generate(RoadNetwork.CityConfig("flat",
      gridW = 8, gridH = 7, spacingM = 150, jitterFrac = 0.0, seed = 5))
    val rnd = new Random(31)
    val routes = Seq.fill(60)(ReferenceSearch.nodePathSegments(flat,
      rnd.nextInt(flat.numNodes), rnd.nextInt(flat.numNodes)).get)
    val sp = new RoutePlanner(flat, Map.empty, Map.empty, beta = 0.0)
    val fitted = RoutePlanner.fit(flat, routes)
    val twin = flat.segments.map(s => (s.from, s.to) -> s.id).toMap
    val uTurns = flat.segments.toSeq.map(s => (s.id, twin((s.to, s.from))))
    assert(uTurns.size == flat.numSegments)
    Seq[(RoutePlanner, (Int, Int) => Double)](
      sp -> ((c, n) => flat.segments(n).lengthM + 0.0 * sp.negLogProb(c, n)),
      fitted -> ((c, n) => flat.segments(n).lengthM + 30.0 * fitted.negLogProb(c, n))).foreach { case (p, cost) =>
      uTurns.foreach { case (a, b) =>
        assert(p.plan(a, b) == ReferenceSearch.segmentSearch(flat, a, b, cost).getOrElse(List(b)), s"$a->$b")
      }
    }
  }

  test("a network with a segment shorter than its chord is rejected") {
    val nodes = Array(XY(0, 0), XY(100, 0))
    val chord = nodes(0).dist(nodes(1))
    new RoadNetwork("chord", nodes, Array(Segment(0, 0, 1, nodes(0), nodes(1), chord)))
    intercept[IllegalArgumentException](new RoadNetwork("short", nodes,
      Array(Segment(0, 0, 1, nodes(0), nodes(1), chord), Segment(1, 1, 0, nodes(1), nodes(0), 99.9))))
  }

  /** A query, the name of its network, and its answer on fresh state from
    * `ReferenceSearch`. Answers are compared bit for bit: doubles by their
    * raw bits, after which a returned array is scribbled over.
    */
  private final case class Query(desc: String, run: () => Any, fresh: () => Any) {
    def kind: String = desc.split(' ')(1)
  }

  private def bits(a: Array[Double]): Seq[Long] = a.toSeq.map(java.lang.Double.doubleToRawLongBits)

  private def scribbled(a: Array[Double]): Seq[Long] = {
    val b = bits(a)
    java.util.Arrays.fill(a, -1.0)
    b
  }

  /** A seeded mix of every kind of query over networks of different vertex
    * counts, two of them with equal counts (`TestWorld.net` and its
    * `upwards` variant).
    */
  private def mixedQueries(seed: Long, count: Int): IndexedSeq[Query] = {
    val nets = IndexedSeq(net, TestWorld.net, upwards(TestWorld.net), TestWorld.oneWayDeadEnd)
    val lengths = nets.map(n => Array.tabulate(n.numSegments)(u => n.nextSegments(u).map(n.segments(_).lengthM)))
    val rnd = new Random(seed)
    IndexedSeq.fill(count) {
      val k = rnd.nextInt(nets.length)
      val n = nets(k)
      val a = rnd.nextInt(n.numNodes); val b = rnd.nextInt(n.numNodes)
      val bound = 100 + 600 * rnd.nextDouble()
      rnd.nextInt(6) match {
        case 0 => Query(s"${n.name} dijkstra $a", () => scribbled(dijkstra(n, a)),
            () => bits(ReferenceSearch.dijkstra(n, a)))
        case 1 => Query(s"${n.name} boundedDijkstra $a $bound", () => scribbled(dijkstra(n, a, bound)),
            () => bits(ReferenceSearch.dijkstra(n, a, bound)))
        case 2 =>
          val drawn = Array.fill(1 + rnd.nextInt(4))(rnd.nextInt(n.numNodes))
          val targets = drawn ++ drawn.take(1)
          val maxDist = if (rnd.nextBoolean()) bound else Double.PositiveInfinity
          Query(s"${n.name} dijkstraTo $a $maxDist ${targets.toSeq}",
            () => bits(ShortestPath.dijkstraTo(n, a, maxDist, targets)),
            () => bits(targets.map(ReferenceSearch.dijkstra(n, a, maxDist)(_))))
        case 3 => Query(s"${n.name} aStar $a $b", () => bits(Array(ShortestPath.aStar(n, a, b))),
            () => bits(Array(ReferenceSearch.aStar(n, a, b))))
        case 4 => Query(s"${n.name} nodePathSegments $a $b", () => ShortestPath.nodePathSegments(n, a, b),
            () => ReferenceSearch.nodePathSegments(n, a, b))
        case _ =>
          val sa = rnd.nextInt(n.numSegments); val sb = rnd.nextInt(n.numSegments)
          Query(s"${n.name} segmentSearch $sa $sb", () => ShortestPath.segmentSearch(n, sa, sb, lengths(k)),
            () => ReferenceSearch.segmentSearch(n, sa, sb, (_, next) => n.segments(next).lengthM))
      }
    }
  }

  private lazy val queries = mixedQueries(seed = 41, count = 1500)

  test("a sequence of mixed queries over several networks equals fresh-state reference searches, bit for bit") {
    queries.foreach(q => assert(q.run() == q.fresh(), q.desc))
    assert(queries.map(_.kind).distinct.size == 6)
    // The upwards variant leaves targets unreachable.
    assert(queries.exists(q => q.desc.startsWith("tw-up nodePathSegments") && q.fresh() == None))
  }

  test("writing into the array dijkstra returned does not change the next query") {
    val first = dijkstra(net, 5, maxDist = 500)
    java.util.Arrays.fill(first, 0.0)
    assert(bits(dijkstra(net, 5, maxDist = 500)) == bits(ReferenceSearch.dijkstra(net, 5, 500)))
    assert(bits(ShortestPath.dijkstraTo(net, 5, 500, Array(0, 7))) ==
      bits(Array(0, 7).map(ReferenceSearch.dijkstra(net, 5, 500)(_))))
  }

  test("a query that fails on a bad target leaves the next query unaffected") {
    intercept[IndexOutOfBoundsException](ShortestPath.dijkstraTo(net, 0, 500, Array(3, net.numNodes, 4)))
    assert(bits(dijkstra(net, 0)) == bits(ReferenceSearch.dijkstra(net, 0)))
  }

  test("four threads running the same queries at once each get the sequential answers") {
    val sequential = queries.map(_.run())
    val pool = Executors.newFixedThreadPool(4)
    try {
      val start = new java.util.concurrent.CountDownLatch(1)
      val futures = (1 to 4).map(_ => pool.submit(new Callable[IndexedSeq[Any]] {
        def call(): IndexedSeq[Any] = { start.await(); queries.map(_.run()) }
      }))
      start.countDown()
      futures.foreach(f => assert(f.get(5, TimeUnit.MINUTES) == sequential))
    } finally pool.shutdownNow()
  }
}
